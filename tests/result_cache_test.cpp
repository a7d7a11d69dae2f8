/**
 * @file
 * ResultCache tests (DESIGN.md §11): content-addressed keying is
 * position- and bench-independent, persisted entries round-trip
 * byte-exactly, quarantined results are never cached, and every
 * corruption mode — torn tail, flipped byte, stale cache or wire
 * version, garbage header — degrades to a miss (recompute), never a
 * crash. The JournalTest cases drive the sweep-scoped open behind
 * `--journal` (DESIGN.md §10.3): fresh/resume round trips, torn-tail
 * tolerance, failed-point rerun semantics, and the refusal — exit 1,
 * file untouched — of a journal from another sweep or an older build.
 * The end-to-end warm-replay and cross-bench determinism contract is
 * exercised against real bench binaries by tests/cache_smoke.cmake,
 * the journaled crash/resume contract by tests/fault_smoke.cmake.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/result_cache.hh"

namespace
{

using namespace acr;
using namespace acr::harness;

std::vector<GridPoint>
tinyGrid()
{
    std::vector<GridPoint> points;
    ExperimentConfig config;
    config.mode = BerMode::kNoCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kReCkpt;
    points.push_back({"is", config, 2});
    return points;
}

ExperimentResult
fakeResult(std::uint64_t cycles)
{
    ExperimentResult result;
    result.cycles = cycles;
    result.energyPj = static_cast<double>(cycles) * 2.0;
    result.edp = static_cast<double>(cycles) * 3.0;
    result.checkpointsEstablished = 7;
    return result;
}

std::string
dump(const ExperimentResult &result)
{
    return wire::encodeResult(result).dump();
}

std::string
cachePath(const std::string &tag)
{
    return testing::TempDir() + "acr_cache_" + tag + "_" +
           std::to_string(::getpid()) + ".ndjson";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/** The scope of shard @p shard of @p shards of @p grid, bench @p bench. */
wire::ManifestRecord
scopeOf(const std::string &bench, std::uint64_t shard,
        std::uint64_t shards, const std::vector<GridPoint> &grid)
{
    wire::ManifestRecord scope;
    scope.bench = bench;
    scope.shard = shard;
    scope.shardCount = shards;
    scope.gridPoints = grid.size();
    scope.gridHash = wire::gridHash(grid);
    return scope;
}

TEST(PointHash, ContentAddressedAndSensitiveToEveryAxis)
{
    const auto grid = tinyGrid();

    // Same content, same hash — regardless of containing vector or
    // "bench": the hash covers only (workload, config, threads).
    GridPoint copy = grid[0];
    EXPECT_EQ(wire::pointHash(grid[0]), wire::pointHash(copy));

    // Distinct configs, workloads, and thread counts all separate.
    EXPECT_NE(wire::pointHash(grid[0]), wire::pointHash(grid[1]));
    copy.workload = "mg";
    EXPECT_NE(wire::pointHash(grid[0]), wire::pointHash(copy));
    copy = grid[0];
    copy.threads = 4;
    EXPECT_NE(wire::pointHash(grid[0]), wire::pointHash(copy));
}

TEST(ResultCacheTest, FreshInsertThenReopenServesByContent)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("fresh");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        ASSERT_TRUE(cache.isOpen());
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(cache.find(grid[0]), nullptr);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[2], fakeResult(300));
        EXPECT_EQ(cache.inserts(), 2u);
        EXPECT_EQ(cache.misses(), 1u);

        // Hits serve the exact stored payload.
        const auto *hit = cache.find(grid[0]);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(dump(*hit), dump(fakeResult(100)));
        EXPECT_EQ(cache.hits(), 1u);
    }

    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), 2u);
    // Content addressing: lookup works from a freshly built, distinct
    // GridPoint object (different grid position, different "bench").
    auto probe = tinyGrid()[2];
    const auto *hit = reloaded.find(probe);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(dump(*hit), dump(fakeResult(300)));
    EXPECT_EQ(reloaded.find(tinyGrid()[1]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, DuplicateInsertIsANoOp)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("dup");
    std::remove(path.c_str());

    ResultCache cache;
    cache.open(path);
    cache.insert(grid[0], fakeResult(100));
    const auto bytes = readFile(path).size();
    cache.insert(grid[0], fakeResult(100));
    EXPECT_EQ(cache.inserts(), 1u);
    EXPECT_EQ(readFile(path).size(), bytes);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, QuarantinedResultsAreNeverCached)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("quarantine");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0],
                     ExperimentResult::quarantined(3, "signal 9"));
        EXPECT_EQ(cache.inserts(), 0u);
        EXPECT_EQ(cache.size(), 0u);
    }
    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.find(grid[0]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, TornFinalLineIsDroppedAndTruncated)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("torn");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[1], fakeResult(200));
    }
    // Chop the trailing newline and half the final entry.
    const auto content = readFile(path);
    ASSERT_GT(content.size(), 40u);
    writeFile(path, content.substr(0, content.size() - 40));

    {
        ResultCache reloaded;
        reloaded.open(path);
        EXPECT_EQ(reloaded.size(), 1u);
        EXPECT_NE(reloaded.find(grid[0]), nullptr);
        EXPECT_EQ(reloaded.find(grid[1]), nullptr);
        // The file was truncated to the durable prefix, so a fresh
        // append lands on a clean line boundary.
        reloaded.insert(grid[1], fakeResult(200));
    }
    ResultCache full;
    full.open(path);
    EXPECT_EQ(full.size(), 2u);
    EXPECT_NE(full.find(grid[1]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, FlippedByteSkipsOnlyThatEntry)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("flip");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[1], fakeResult(200));
    }
    // Corrupt a byte inside the first entry (the second line) only.
    auto content = readFile(path);
    const auto header_end = content.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    const auto flip = content.find("\"type\":\"entry\"", header_end);
    ASSERT_NE(flip, std::string::npos);
    content[flip + 9] = 'X';  // "entry" -> "Xntry"
    writeFile(path, content);

    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.find(grid[0]), nullptr);  // served as a miss
    const auto *hit = reloaded.find(grid[1]);    // neighbor survives
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(dump(*hit), dump(fakeResult(200)));
    std::remove(path.c_str());
}

TEST(ResultCacheTest, KeyPointMismatchIsSkipped)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("keymismatch");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
    }
    // Re-key the entry: content-addressing must detect that the key
    // no longer hashes the point and refuse to serve it.
    auto content = readFile(path);
    const auto key_at = content.find("\"key\":");
    ASSERT_NE(key_at, std::string::npos);
    content[key_at + 6] =
        content[key_at + 6] == '1' ? '2' : '1';  // first key digit
    writeFile(path, content);

    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), 0u);
    EXPECT_EQ(reloaded.find(grid[0]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, StaleWireVersionStartsCold)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("stalewire");
    std::remove(path.c_str());

    std::string content;
    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        content = readFile(path);
    }
    // Pretend the file was written by a build speaking a different
    // wire version: every entry must be served as a miss, not decoded.
    const std::string current =
        "\"wirev\":" + std::to_string(wire::kVersion);
    const auto at = content.find(current);
    ASSERT_NE(at, std::string::npos);
    content.replace(at, current.size(),
                    "\"wirev\":" + std::to_string(wire::kVersion + 1));
    writeFile(path, content);

    {
        ResultCache reloaded;
        reloaded.open(path);
        EXPECT_EQ(reloaded.size(), 0u);
        EXPECT_EQ(reloaded.find(grid[0]), nullptr);
        // The cold cache re-headed the file for this build and keeps
        // working as a fresh cache.
        reloaded.insert(grid[0], fakeResult(100));
    }
    ResultCache fresh;
    fresh.open(path);
    EXPECT_EQ(fresh.size(), 1u);
    EXPECT_NE(fresh.find(grid[0]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, WriteFailureDegradesInsteadOfDying)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("enospc");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        const auto durable_bytes = readFile(path).size();

        // The next append hits (injected) ENOSPC: the cache must warn
        // and degrade, not fatal() — a full disk may not kill a sweep.
        cache.failNextWriteForTest();
        cache.insert(grid[1], fakeResult(200));
        EXPECT_TRUE(cache.degraded());
        EXPECT_TRUE(cache.isOpen());
        EXPECT_EQ(cache.inserts(), 1u);  // only the durable one
        EXPECT_EQ(readFile(path).size(), durable_bytes);

        // Loaded/previous entries still serve, and the failed insert
        // still deduplicates in memory for this process.
        EXPECT_NE(cache.find(grid[0]), nullptr);
        EXPECT_NE(cache.find(grid[1]), nullptr);

        // Further inserts are silent no-ops on disk, not crashes.
        cache.insert(grid[2], fakeResult(300));
        EXPECT_EQ(cache.inserts(), 1u);
        EXPECT_EQ(readFile(path).size(), durable_bytes);
    }

    // The on-disk file holds exactly the entries appended before the
    // failure — a clean durable prefix a later run can still load.
    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_NE(reloaded.find(grid[0]), nullptr);
    EXPECT_EQ(reloaded.find(grid[1]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, GarbageHeaderStartsCold)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("garbage");
    writeFile(path, "this is not a cache file\nat all\n");

    ResultCache cache;
    cache.open(path);
    EXPECT_TRUE(cache.isOpen());
    EXPECT_EQ(cache.size(), 0u);
    cache.insert(grid[0], fakeResult(100));
    EXPECT_EQ(cache.inserts(), 1u);
    std::remove(path.c_str());
}

TEST(JournalTest, FreshThenResumeServesRecordedResults)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_fresh");
    const auto scope = scopeOf("bench", 0, 1, grid);

    {
        ResultCache journal("journal");
        journal.open(path, &scope, false);
        ASSERT_TRUE(journal.isOpen());
        EXPECT_EQ(journal.size(), 0u);
        journal.insert(grid[0], fakeResult(100));
        journal.insert(grid[2], fakeResult(300));
        EXPECT_EQ(journal.inserts(), 2u);
    }

    ResultCache reloaded("journal");
    reloaded.open(path, &scope, true);
    ASSERT_EQ(reloaded.size(), 2u);
    ASSERT_NE(reloaded.find(grid[0]), nullptr);
    ASSERT_NE(reloaded.find(grid[2]), nullptr);
    EXPECT_EQ(dump(*reloaded.find(grid[0])), dump(fakeResult(100)));
    EXPECT_EQ(dump(*reloaded.find(grid[2])), dump(fakeResult(300)));
    // The reopened journal appends, so resuming twice still works.
    EXPECT_EQ(reloaded.inserts(), 0u);
    reloaded.insert(grid[1], fakeResult(200));
    reloaded.close();

    ResultCache full("journal");
    full.open(path, &scope, true);
    EXPECT_EQ(full.size(), 3u);
    std::remove(path.c_str());
}

TEST(JournalTest, WriteFailureDegradesInsteadOfDying)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_enospc");
    const auto scope = scopeOf("bench", 0, 1, grid);

    {
        ResultCache journal("journal");
        journal.open(path, &scope, false);
        journal.insert(grid[0], fakeResult(100));

        // The next append hits (injected) ENOSPC: the journal must
        // warn and degrade, not fatal() — a full disk may disable
        // resumability but never kill the sweep itself.
        journal.failNextWriteForTest();
        journal.insert(grid[1], fakeResult(200));
        EXPECT_TRUE(journal.degraded());
        EXPECT_TRUE(journal.isOpen());
        EXPECT_EQ(journal.inserts(), 1u);  // only the durable one

        // Further inserts are silent no-ops, not crashes.
        journal.insert(grid[2], fakeResult(300));
        EXPECT_EQ(journal.inserts(), 1u);
    }

    // The file holds exactly the entries appended before the failure:
    // a clean durable prefix a --resume can still load (the lost
    // points simply rerun).
    ResultCache reloaded("journal");
    reloaded.open(path, &scope, true);
    ASSERT_EQ(reloaded.size(), 1u);
    ASSERT_NE(reloaded.find(grid[0]), nullptr);
    EXPECT_EQ(dump(*reloaded.find(grid[0])), dump(fakeResult(100)));
    std::remove(path.c_str());
}

TEST(JournalTest, WithoutResumeTruncatesExistingJournal)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_truncate");
    const auto scope = scopeOf("bench", 0, 1, grid);

    {
        ResultCache journal("journal");
        journal.open(path, &scope, false);
        journal.insert(grid[0], fakeResult(100));
    }
    ResultCache fresh("journal");
    fresh.open(path, &scope, false);
    EXPECT_EQ(fresh.size(), 0u);
    fresh.close();

    ResultCache reloaded("journal");
    reloaded.open(path, &scope, true);
    EXPECT_EQ(reloaded.size(), 0u);
    std::remove(path.c_str());
}

TEST(JournalTest, ResumeWithMissingFileStartsFresh)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_missing");
    std::remove(path.c_str());

    const auto scope = scopeOf("bench", 0, 1, grid);
    ResultCache journal("journal");
    journal.open(path, &scope, true);
    EXPECT_TRUE(journal.isOpen());
    EXPECT_EQ(journal.size(), 0u);
    journal.close();
    std::remove(path.c_str());
}

TEST(JournalTest, TornFinalLineIsDropped)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_torn");
    const auto scope = scopeOf("bench", 0, 1, grid);

    {
        ResultCache journal("journal");
        journal.open(path, &scope, false);
        journal.insert(grid[0], fakeResult(100));
        journal.insert(grid[1], fakeResult(200));
    }
    // Simulate the coordinator dying mid-append: chop the trailing
    // newline and part of the final entry.
    const std::string content = readFile(path);
    ASSERT_GT(content.size(), 40u);
    writeFile(path, content.substr(0, content.size() - 40));

    ResultCache reloaded("journal");
    reloaded.open(path, &scope, true);
    ASSERT_EQ(reloaded.size(), 1u);
    ASSERT_NE(reloaded.find(grid[0]), nullptr);
    EXPECT_EQ(dump(*reloaded.find(grid[0])), dump(fakeResult(100)));
    // Point 1 reruns and its fresh entry appends cleanly.
    reloaded.insert(grid[1], fakeResult(200));
    reloaded.close();

    ResultCache full("journal");
    full.open(path, &scope, true);
    EXPECT_EQ(full.size(), 2u);
    std::remove(path.c_str());
}

TEST(JournalTest, FailedRecordsAreSkippedSoQuarantinedPointsRerun)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_failed");
    const auto scope = scopeOf("bench", 0, 1, grid);

    {
        ResultCache journal("journal");
        journal.open(path, &scope, false);
        journal.insert(grid[0], fakeResult(100));
        journal.insert(
            grid[1], ExperimentResult::quarantined(3, "killed by signal 9"));
        // The quarantine placeholder is never written.
        EXPECT_EQ(journal.inserts(), 1u);
    }

    ResultCache reloaded("journal");
    reloaded.open(path, &scope, true);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.find(grid[1]), nullptr);
    std::remove(path.c_str());
}

TEST(JournalTest, ResumeValidatesBenchShardAndGrid)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_validate");

    {
        ResultCache journal("journal");
        const auto scope = scopeOf("bench", 0, 1, grid);
        journal.open(path, &scope, false);
        journal.insert(grid[0], fakeResult(100));
    }
    const std::string written = readFile(path);

    EXPECT_EXIT(
        {
            const auto scope = scopeOf("other", 0, 1, grid);
            ResultCache journal("journal");
            journal.open(path, &scope, true);
        },
        testing::ExitedWithCode(1), "belongs to bench");
    EXPECT_EXIT(
        {
            const auto scope = scopeOf("bench", 1, 2, grid);
            ResultCache journal("journal");
            journal.open(path, &scope, true);
        },
        testing::ExitedWithCode(1), "shard");
    EXPECT_EXIT(
        {
            auto other = tinyGrid();
            other.pop_back();
            const auto scope = scopeOf("bench", 0, 1, other);
            ResultCache journal("journal");
            journal.open(path, &scope, true);
        },
        testing::ExitedWithCode(1), "different grid");
    // A refused resume never truncates the user's journal.
    EXPECT_EQ(readFile(path), written);

    // An unscoped --cache file is not a journal of this sweep either.
    const auto cache_path = cachePath("journal_unscoped");
    {
        ResultCache cache;
        cache.open(cache_path);
        cache.insert(grid[0], fakeResult(100));
    }
    const std::string cache_bytes = readFile(cache_path);
    EXPECT_EXIT(
        {
            const auto scope = scopeOf("bench", 0, 1, grid);
            ResultCache journal("journal");
            journal.open(cache_path, &scope, true);
        },
        testing::ExitedWithCode(1), "unscoped cache");
    EXPECT_EQ(readFile(cache_path), cache_bytes);

    // Any cache open reads a journal: its entries are content-keyed.
    ResultCache cache;
    cache.open(path);
    EXPECT_NE(cache.find(grid[0]), nullptr);
    cache.close();
    std::remove(cache_path.c_str());
    std::remove(path.c_str());
}

TEST(JournalTest, ResumeRefusesAPreScopeJournalUntouched)
{
    // A journal written before journals became scoped caches: a
    // manifest record first, then one grid-indexed result record per
    // completed point.
    const auto grid = tinyGrid();
    const auto path = cachePath("journal_prescope");
    const auto scope = scopeOf("bench", 0, 1, grid);
    const std::string old_format =
        wire::encodeManifestLine(scope) + "\n" +
        wire::encodeResultLine({0, fakeResult(100)}) + "\n";
    writeFile(path, old_format);

    EXPECT_EXIT(
        {
            ResultCache journal("journal");
            journal.open(path, &scope, true);
        },
        testing::ExitedWithCode(1), "starts with a manifest record");
    EXPECT_EQ(readFile(path), old_format);
    std::remove(path.c_str());
}

} // namespace
