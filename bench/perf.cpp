/**
 * @file
 * bench/perf: the engine-throughput benchmark behind BENCH_perf.json
 * and the CI perf gate (DESIGN.md §13.5).
 *
 * Runs the fig06 experiment grid — the same 8 workloads × 5 configs
 * every overhead figure multiplies — single-threaded, timing each
 * engine phase separately:
 *
 *   build_programs  workload kernel construction
 *   slice_pass      profiling pass (hint selection, NoCkpt reference)
 *   no_ckpt         baseline runs (no checkpoint substrate)
 *   ckpt            incremental checkpointing runs (Ckpt_NE + Ckpt_E)
 *   re_ckpt         ACR runs (ReCkpt_NE + ReCkpt_E)
 *
 * The `counters` object holds the slice passes' deterministic work
 * counts (nodes allocated, results too deep for a node, store builds
 * and builds answered without a walk), comparable across hosts.
 *
 * Unlike every other bench, the interesting output here is host wall
 * time, which is inherently nondeterministic — so this binary does NOT
 * go through benchMain's byte-identical rendering contract. The
 * simulated results it produces are still checked against the golden
 * grid by tests/perf_equiv_test.cpp; this front-end only measures how
 * fast they are produced.
 *
 * A short fixed arithmetic loop is timed first and reported as
 * `calibration.seconds`: scripts/perf_check multiplies points/sec by
 * it to get a host-speed-normalized score, so a baseline recorded on a
 * fast machine does not flag a regression on a slow one.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/options.hh"
#include "common/serde.hh"
#include "slice/engine.hh"

namespace
{

using namespace acr;
using namespace acr::bench;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One timed engine phase of a measurement repeat. */
struct Phase
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t points = 0;
    std::uint64_t instructions = 0;
};

/** One full measurement of the grid (a fresh Runner, cold caches). */
struct Measurement
{
    std::vector<Phase> phases;
    /** Slice-pass work counts, summed over the workloads. */
    slice::SliceEngine::Counters slice;
    double seconds = 0.0;
    std::uint64_t points = 0;
    std::uint64_t instructions = 0;
    /**
     * Deterministic CSV of every grid point's *simulated* results —
     * the surface --results-out dumps so CI can assert that prefix
     * sharing moves no result byte (host wall times are excluded; they
     * are the one legitimately nondeterministic output of this bench).
     */
    std::string resultsCsv;
};

/**
 * Fixed integer workload (~100M LCG steps) timed to estimate host
 * speed. The result only ever appears as a *ratio* between two
 * BENCH_perf.json files, so the absolute work amount is arbitrary —
 * it just has to be the same in both.
 */
constexpr std::uint64_t kCalibrationIters = 100'000'000;

double
calibrate()
{
    auto start = Clock::now();
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (std::uint64_t i = 0; i < kCalibrationIters; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    double seconds = secondsSince(start);
    // Defeat dead-code elimination of the loop.
    if (x == 0)
        std::cerr << "";
    return seconds;
}

std::uint64_t
instrsOf(const harness::ExperimentResult &result)
{
    return static_cast<std::uint64_t>(result.stats.get("cores.instrs"));
}

/** Run the fig06 grid once on a fresh Runner, phase by phase. */
Measurement
measureOnce(const std::vector<std::string> &names, bool prefix_share)
{
    Measurement m;
    harness::Runner runner(kDefaultThreads);
    runner.setPrefixShare(prefix_share);

    auto phase = [&](const std::string &name, auto &&body) {
        Phase p;
        p.name = name;
        auto start = Clock::now();
        body(p);
        p.seconds = secondsSince(start);
        m.seconds += p.seconds;
        m.points += p.points;
        m.instructions += p.instructions;
        m.phases.push_back(std::move(p));
    };

    phase("build_programs", [&](Phase &) {
        for (const auto &name : names)
            runner.baseProgram(name);
    });

    phase("slice_pass", [&](Phase &p) {
        for (const auto &name : names) {
            const auto &pass = runner.profile(name);
            p.instructions += pass.totalProgress;
            m.slice.nodesAllocated += pass.slicerWork.nodesAllocated;
            m.slice.deepResults += pass.slicerWork.deepResults;
            m.slice.builds += pass.slicerWork.builds;
            m.slice.walklessBuilds += pass.slicerWork.walklessBuilds;
        }
    });

    auto run_configs =
        [&](Phase &p, const std::vector<harness::ExperimentConfig> &cfgs) {
            for (const auto &name : names) {
                for (const auto &config : cfgs) {
                    auto result = runner.run(name, config);
                    ++p.points;
                    p.instructions += instrsOf(result);
                    m.resultsCsv += csprintf(
                        "%s,%s,%llu,%.17g,%llu,%llu,%llu,%llu\n",
                        name.c_str(), config.label().c_str(),
                        static_cast<unsigned long long>(result.cycles),
                        result.energyPj,
                        static_cast<unsigned long long>(
                            result.checkpointsEstablished),
                        static_cast<unsigned long long>(
                            result.recoveries),
                        static_cast<unsigned long long>(
                            result.ckptBytesStored),
                        static_cast<unsigned long long>(
                            result.ckptBytesOmitted));
                }
            }
        };

    phase("no_ckpt", [&](Phase &p) {
        run_configs(p, {makeConfig(harness::BerMode::kNoCkpt)});
    });

    // Within each scheme the with-errors run goes first: it is the one
    // that captures the error-free-prefix snapshot (at its first fault
    // trigger), which the error-free sibling then resumes from instead
    // of re-simulating the whole program (DESIGN.md §13).
    phase("ckpt", [&](Phase &p) {
        run_configs(p, {makeConfig(harness::BerMode::kCkpt, 1),
                        makeConfig(harness::BerMode::kCkpt)});
    });

    phase("re_ckpt", [&](Phase &p) {
        run_configs(p, {makeConfig(harness::BerMode::kReCkpt, 1),
                        makeConfig(harness::BerMode::kReCkpt)});
    });

    return m;
}

std::uint64_t
peakRssBytes()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

serde::Json
toJson(const Measurement &m, double calibration_seconds,
       const std::vector<std::string> &names, unsigned repeats)
{
    double pts_per_sec = static_cast<double>(m.points) / m.seconds;
    double instrs_per_sec =
        static_cast<double>(m.instructions) / m.seconds;
    double ns_per_instr =
        m.seconds * 1e9 / static_cast<double>(m.instructions);

    serde::Json doc = serde::Json::object();
    doc.set("schema", "acr.bench_perf.v1");
    doc.set("bench", "perf");
    doc.set("grid", "fig06");
    doc.set("threads", kDefaultThreads);
    doc.set("checkpoints", kDefaultCheckpoints);
    doc.set("repeats", repeats);

    serde::Json workloads = serde::Json::array();
    for (const auto &name : names)
        workloads.push(name);
    doc.set("workloads", std::move(workloads));

    serde::Json calibration = serde::Json::object();
    calibration.set("iters", kCalibrationIters);
    calibration.set("seconds", calibration_seconds);
    doc.set("calibration", std::move(calibration));

    serde::Json totals = serde::Json::object();
    totals.set("seconds", m.seconds);
    totals.set("points", m.points);
    totals.set("points_per_sec", pts_per_sec);
    totals.set("instructions", m.instructions);
    totals.set("instructions_per_sec", instrs_per_sec);
    totals.set("ns_per_instruction", ns_per_instr);
    totals.set("peak_rss_bytes", peakRssBytes());
    doc.set("totals", std::move(totals));

    serde::Json phases = serde::Json::array();
    for (const auto &p : m.phases) {
        serde::Json entry = serde::Json::object();
        entry.set("name", p.name);
        entry.set("seconds", p.seconds);
        entry.set("points", p.points);
        entry.set("instructions", p.instructions);
        phases.push(std::move(entry));
    }
    doc.set("phases", std::move(phases));

    serde::Json counters = serde::Json::object();
    counters.set("slice_nodes_allocated", m.slice.nodesAllocated);
    counters.set("slice_deep_results", m.slice.deepResults);
    counters.set("slice_builds", m.slice.builds);
    counters.set("slice_walkless_builds", m.slice.walklessBuilds);
    doc.set("counters", std::move(counters));
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser options("perf");
    options.addString("out", "BENCH_perf.json",
                      "output JSON path (empty: don't write a file)");
    options.addString("format", "table",
                      "stdout rendering: table | json");
    options.addUint("repeats", 3,
                    "measurement repeats (fresh caches each); the "
                    "fastest repeat is reported");
    options.addString("prefix-share", "on",
                      "error-free prefix sharing between the runs of a "
                      "grid cell: on | off (off = full re-simulation; "
                      "results are identical either way)");
    options.addString("results-out", "",
                      "write a deterministic CSV of every grid point's "
                      "simulated results (no wall times) — byte-compare "
                      "runs with --prefix-share=on vs off");
    options.parse(argc, argv);

    const std::string out = options.getString("out");
    const std::string format = options.getString("format");
    const unsigned repeats =
        static_cast<unsigned>(options.getUint("repeats"));
    const std::string prefix_share_str =
        options.getString("prefix-share");
    if (format != "table" && format != "json")
        fatal("--format must be 'table' or 'json'");
    if (repeats < 1)
        fatal("--repeats must be >= 1");
    if (prefix_share_str != "on" && prefix_share_str != "off")
        fatal("--prefix-share must be 'on' or 'off'");
    const bool prefix_share = prefix_share_str == "on";

    const std::vector<std::string> names =
        workloads::allWorkloadNames();

    double calibration_seconds = calibrate();

    // Best-of-N: host noise only ever slows a repeat down, so the
    // fastest one is the truest measure of the engine.
    Measurement best;
    for (unsigned r = 0; r < repeats; ++r) {
        Measurement m = measureOnce(names, prefix_share);
        std::cerr << "perf: repeat " << (r + 1) << "/" << repeats
                  << ": " << m.seconds << " s, "
                  << static_cast<double>(m.points) / m.seconds
                  << " points/sec\n";
        if (r == 0 || m.seconds < best.seconds)
            best = std::move(m);
    }

    serde::Json doc =
        toJson(best, calibration_seconds, names, repeats);

    const std::string results_out = options.getString("results-out");
    if (!results_out.empty()) {
        std::ofstream file(results_out, std::ios::trunc);
        if (!file)
            fatal("cannot write '%s'", results_out.c_str());
        file << "workload,config,cycles,energy_pj,checkpoints,"
                "recoveries,ckpt_bytes_stored,ckpt_bytes_omitted\n"
             << best.resultsCsv;
    }

    if (!out.empty()) {
        std::ofstream file(out, std::ios::trunc);
        if (!file)
            fatal("cannot write '%s'", out.c_str());
        doc.write(file);
        file << "\n";
    }

    if (format == "json") {
        doc.write(std::cout);
        std::cout << "\n";
    } else {
        Table table({"phase", "seconds", "points", "instructions"});
        for (const auto &p : best.phases) {
            table.row()
                .cell(p.name)
                .cell(p.seconds, 3)
                .cell(static_cast<long long>(p.points))
                .cell(static_cast<long long>(p.instructions));
        }
        table.emit(std::cout, TableFormat::kTable);
        std::cout << "total: " << best.seconds << " s, "
                  << static_cast<double>(best.points) / best.seconds
                  << " points/sec, "
                  << best.seconds * 1e9 /
                         static_cast<double>(best.instructions)
                  << " ns/instruction\n";
    }
    return 0;
}
