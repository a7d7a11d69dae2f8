/**
 * Sweep determinism lock: fanning an in-process ShardedSweep out
 * across worker threads must be observationally invisible. An
 * 8-workload × {NoCkpt, Ckpt, ReCkpt} grid run with jobs=1 and jobs=8
 * from the same seed must produce bit-identical ExperimentResults —
 * every scalar field, every StatSet entry, every per-interval history
 * record. Two independent RunnerPools are used so even the cache-fill
 * work (program builds, slice passes) happens under different
 * schedules.
 */

#include <gtest/gtest.h>

#include <set>

#include "harness/sharded_sweep.hh"

namespace acr::harness
{
namespace
{

std::vector<GridPoint>
grid()
{
    std::vector<GridPoint> points;
    for (const auto &name : workloads::allWorkloadNames()) {
        for (auto mode :
             {BerMode::kNoCkpt, BerMode::kCkpt, BerMode::kReCkpt}) {
            ExperimentConfig config;
            config.mode = mode;
            config.numCheckpoints = 15;
            config.numErrors = mode == BerMode::kNoCkpt ? 0 : 1;
            config.sliceThreshold = 0;  // per-workload default
            points.push_back({name, config, 4});
        }
    }
    return points;
}

void
expectBitIdentical(const ExperimentResult &serial,
                   const ExperimentResult &parallel,
                   const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(serial.cycles, parallel.cycles);
    EXPECT_EQ(serial.energyPj, parallel.energyPj);  // exact, not near
    EXPECT_EQ(serial.edp, parallel.edp);
    EXPECT_EQ(serial.checkpointsEstablished,
              parallel.checkpointsEstablished);
    EXPECT_EQ(serial.recoveries, parallel.recoveries);
    EXPECT_EQ(serial.ckptBytesStored, parallel.ckptBytesStored);
    EXPECT_EQ(serial.ckptBytesOmitted, parallel.ckptBytesOmitted);

    // Every StatSet entry: same names, same exact values.
    EXPECT_EQ(serial.stats.size(), parallel.stats.size());
    for (const auto &[name, value] : serial.stats.all()) {
        EXPECT_TRUE(parallel.stats.has(name)) << name;
        EXPECT_EQ(value, parallel.stats.get(name)) << name;
    }

    ASSERT_EQ(serial.history.size(), parallel.history.size());
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
        const auto &s = serial.history[i];
        const auto &p = parallel.history[i];
        EXPECT_EQ(s.interval, p.interval);
        EXPECT_EQ(s.records, p.records);
        EXPECT_EQ(s.amnesicRecords, p.amnesicRecords);
        EXPECT_EQ(s.loggedBytes, p.loggedBytes);
        EXPECT_EQ(s.omittedBytes, p.omittedBytes);
        EXPECT_EQ(s.flushedLines, p.flushedLines);
        EXPECT_EQ(s.archBytes, p.archBytes);
    }
}

TEST(SweepDeterminism, Jobs8MatchesJobs1BitForBit)
{
    const auto points = grid();

    RunnerPool serial_pool;
    auto serial = ShardedSweep(serial_pool, 1).run(points);

    RunnerPool parallel_pool;
    auto parallel = ShardedSweep(parallel_pool, 8).run(points);

    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(parallel.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        expectBitIdentical(serial[i], parallel[i],
                           points[i].workload + "/" +
                               points[i].config.label());
    }
}

TEST(SweepDeterminism, ResultsComeBackInSubmissionOrder)
{
    // Distinguishable points (different checkpoint counts for one
    // workload): slot i must hold point i's result even when workers
    // finish out of order.
    RunnerPool pool;
    std::vector<GridPoint> points;
    for (unsigned checkpoints : {5u, 10u, 15u, 20u}) {
        ExperimentConfig config;
        config.mode = BerMode::kCkpt;
        config.numCheckpoints = checkpoints;
        config.sliceThreshold = 0;
        points.push_back({"is", config, 2});
    }
    auto serial = ShardedSweep(pool, 1).run(points);
    std::set<std::uint64_t> distinct;
    for (const auto &result : serial)
        distinct.insert(result.checkpointsEstablished);
    ASSERT_EQ(distinct.size(), points.size())
        << "points must be distinguishable for the order check";

    auto results = ShardedSweep(pool, 8).run(points);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(results[i].checkpointsEstablished,
                  serial[i].checkpointsEstablished)
            << "slot " << i;
    }
}

TEST(SweepDeterminism, HostTimingStaysOutOfResults)
{
    // Wall-clock depends on scheduling, so it must never leak into
    // ExperimentResult.stats — it lives in hostStats() only.
    RunnerPool pool;
    std::vector<GridPoint> points;
    ExperimentConfig config;
    config.mode = BerMode::kCkpt;
    config.numCheckpoints = 5;
    config.sliceThreshold = 0;
    points.push_back({"is", config, 2});

    ShardedSweep sweep(pool, 2);
    auto results = sweep.run(points);
    ASSERT_EQ(results.size(), 1u);
    for (const auto &[name, value] : results[0].stats.all())
        EXPECT_EQ(name.rfind("sweep.", 0), std::string::npos) << name;

    EXPECT_EQ(sweep.hostStats().get("sweep.points"), 1.0);
    EXPECT_EQ(sweep.hostStats().get("sweep.jobs"), 2.0);
    EXPECT_GT(sweep.hostStats().get("sweep.wallMillis"), 0.0);
    EXPECT_TRUE(sweep.hostStats().has("sweep.point.000.millis"));
}

TEST(SweepDeterminism, EmptySweepAndDefaultJobs)
{
    RunnerPool pool;
    ShardedSweep sweep(pool, 3);
    EXPECT_EQ(sweep.jobs(), 3u);
    EXPECT_TRUE(sweep.run({}).empty());
    EXPECT_GE(ShardedSweep::defaultJobs(), 1u);
}

} // namespace
} // namespace acr::harness
