/**
 * @file
 * Differential golden lock for the hot-path rewrite (ISSUE 6): the
 * optimized engine must reproduce the recorded seed engine's results
 * byte-for-byte on every workload × mode × coordination cell of the
 * tier-1 grid, errors on and off, plus the functional final state of
 * the slice-pass profile. Unlike golden_test.cpp (reduction arithmetic
 * with a float tolerance), this lock renders every measured quantity
 * into a canonical text grid — integers verbatim, doubles through
 * serde::formatDouble's shortest-round-trip form — and compares the
 * whole document against tests/golden/equiv_grid.txt. Any byte of
 * drift fails, so an SoA/devirtualization refactor cannot silently
 * change results.
 *
 * Regenerate (only for a CONSCIOUS model change, explained in the
 * commit) with:
 *   ACR_UPDATE_GOLDEN=1 ./tests/acr_tests \
 *       --gtest_filter=PerfEquiv.TierOneGridMatchesSeedEngine
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/serde.hh"

namespace acr::bench
{
namespace
{

using harness::BerMode;

constexpr const char *kGoldenPath = ACR_GOLDEN_DIR "/equiv_grid.txt";

/** FNV-1a over (addr, word) pairs in address order. */
std::uint64_t
imageHash(const std::map<Addr, Word> &image)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &[addr, word] : image) {
        mix(addr);
        mix(word);
    }
    return h;
}

const char *
modeName(BerMode mode)
{
    switch (mode) {
    case BerMode::kNoCkpt: return "NoCkpt";
    case BerMode::kCkpt: return "Ckpt";
    case BerMode::kReCkpt: return "ReCkpt";
    }
    return "?";
}

/** Render the whole tier-1 grid into the canonical lock document. */
std::string
renderGrid()
{
    harness::RunnerPool pool;
    harness::Runner &runner = pool.at(kDefaultThreads);

    // Every workload × mode × coord cell: NoCkpt once per workload,
    // then {Ckpt, ReCkpt} × {global, local} × {0, 1 errors}.
    std::vector<harness::ExperimentConfig> configs;
    configs.push_back(makeConfig(BerMode::kNoCkpt));
    for (auto mode : {BerMode::kCkpt, BerMode::kReCkpt})
        for (auto coord :
             {ckpt::Coordination::kGlobal, ckpt::Coordination::kLocal})
            for (unsigned errors : {0u, 1u})
                configs.push_back(makeConfig(mode, errors, coord));

    const auto results = harness::ShardedSweep(pool).run(
        crossGrid(workloads::allWorkloadNames(), configs));

    std::ostringstream out;
    out << "# perf-equiv golden: seed-engine results on the tier-1 "
           "grid (8 threads, 25 checkpoints, default thresholds)\n";
    const auto &names = workloads::allWorkloadNames();
    for (std::size_t w = 0; w < names.size(); ++w) {
        const auto &profile = runner.profile(names[w]);
        out << "image workload=" << names[w]
            << " words=" << profile.finalImage.size()
            << " hash=" << std::hex << imageHash(profile.finalImage)
            << std::dec << " progress=" << profile.totalProgress
            << " passCycles=" << profile.cycles << "\n";
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto &config = configs[c];
            const auto &r = results[w * configs.size() + c];
            out << "cell workload=" << names[w]
                << " mode=" << modeName(config.mode) << " coord="
                << (config.coordination == ckpt::Coordination::kGlobal
                        ? "global"
                        : "local")
                << " errors=" << config.numErrors
                << " cycles=" << r.cycles
                << " energyPj=" << serde::formatDouble(r.energyPj)
                << " edp=" << serde::formatDouble(r.edp)
                << " ckpts=" << r.checkpointsEstablished
                << " recoveries=" << r.recoveries
                << " bytesStored=" << r.ckptBytesStored
                << " bytesOmitted=" << r.ckptBytesOmitted << "\n";
        }
    }
    return out.str();
}

TEST(PerfEquiv, TierOneGridMatchesSeedEngine)
{
    const std::string actual = renderGrid();

    if (std::getenv("ACR_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << actual;
        GTEST_LOG_(INFO) << "regenerated " << kGoldenPath;
        return;
    }

    std::ifstream in(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << kGoldenPath
        << " (regenerate with ACR_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();

    if (actual == expected.str())
        return;

    // Find the first differing line for a readable failure.
    std::istringstream a(actual), e(expected.str());
    std::string aline, eline;
    std::size_t lineno = 0;
    while (true) {
        ++lineno;
        const bool agot = static_cast<bool>(std::getline(a, aline));
        const bool egot = static_cast<bool>(std::getline(e, eline));
        if (!agot && !egot)
            break;
        if (aline != eline || agot != egot) {
            FAIL() << "engine output diverged from the recorded seed "
                      "engine at line "
                   << lineno << ":\n  golden: "
                   << (egot ? eline : "<end of file>")
                   << "\n  actual: " << (agot ? aline : "<end of file>");
        }
    }
    FAIL() << "golden mismatch (line endings or trailing bytes)";
}

} // namespace
} // namespace acr::bench
