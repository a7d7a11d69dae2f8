/**
 * @file
 * ShardedSweep tests: the pass-group deal order groups points by the
 * slice pass they share, threads take it breadth-first, the static
 * partition is disjoint, covering, size-balanced and keeps groups
 * together, "i/N" parsing is strict, the ordered sink fires in
 * ascending grid order even under parallel execution, shards executed
 * in separate pools merge to exactly the unsharded results (the wire
 * encodings are compared byte-for-byte), the --worker child loop
 * speaks the framed wire protocol over a socketpair, and benchMain
 * refuses out-of-range counts and watchdog timeouts and every
 * `--merge` input that is not a complete, disjoint cover of its grid.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_main.hh"
#include "harness/sharded_sweep.hh"
#include "harness/wire.hh"

namespace
{

using namespace acr;
using namespace acr::harness;

std::vector<GridPoint>
smallGrid()
{
    // is on a 2-core machine is the cheapest sweep point; vary the
    // config axis so every result differs.
    std::vector<GridPoint> points;
    ExperimentConfig config;
    config.mode = BerMode::kNoCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kReCkpt;
    points.push_back({"is", config, 2});
    config.numErrors = 1;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    points.push_back({"is", config, 2});
    return points;
}

std::vector<std::string>
encodeAll(const std::vector<ExperimentResult> &results)
{
    std::vector<std::string> lines;
    for (const auto &result : results)
        lines.push_back(wire::encodeResult(result).dump());
    return lines;
}

/** @p total never-simulated points whose pass keys (the slice
 *  threshold here) cycle through @p keys values, so groups interleave
 *  in grid order. */
std::vector<GridPoint>
interleavedGrid(std::size_t total, unsigned keys)
{
    std::vector<GridPoint> points;
    for (std::size_t i = 0; i < total; ++i) {
        ExperimentConfig config;
        config.sliceThreshold = 1 + static_cast<unsigned>(i % keys);
        points.push_back({"is", config, 2});
    }
    return points;
}

/** fig06's shape: @p workloads pass groups of @p configs adjacent
 *  points each. */
std::vector<GridPoint>
blockGrid(unsigned workloads, unsigned configs)
{
    std::vector<GridPoint> points;
    for (unsigned w = 0; w < workloads; ++w)
        for (unsigned c = 0; c < configs; ++c) {
            ExperimentConfig config;
            config.sliceThreshold = 1 + w;
            config.numCheckpoints = 1 + c;
            points.push_back({"is", config, 2});
        }
    return points;
}

std::vector<std::size_t>
allIndices(std::size_t total)
{
    std::vector<std::size_t> indices(total);
    for (std::size_t i = 0; i < total; ++i)
        indices[i] = i;
    return indices;
}

TEST(DealOrder, GroupsByPassKeyInFirstAppearanceAndGridOrder)
{
    ExperimentConfig config;
    config.sliceThreshold = 0;
    std::vector<GridPoint> points;
    points.push_back({"is", config, 2});  // group 0: is's default 5
    config.sliceThreshold = 7;
    points.push_back({"is", config, 2});  // group 1
    config.sliceThreshold = 5;
    config.mode = BerMode::kReCkpt;
    points.push_back({"is", config, 2});  // 0: same resolved key
    config.policy = slice::SelectionPolicy::kCostModel;
    points.push_back({"is", config, 2});  // group 2: policy differs
    points.push_back({"is", config, 4});  // group 3: threads differ
    config.sliceThreshold = 0;
    config.policy = slice::SelectionPolicy::kGreedyThreshold;
    points.push_back({"mg", config, 2});  // group 4: mg's default 10
    config.sliceThreshold = 7;
    points.push_back({"is", config, 2});  // 1

    const auto order =
        ShardedSweep::dealOrder(points, allIndices(points.size()));
    std::vector<std::size_t> slots, groups;
    for (const auto &deal : order) {
        slots.push_back(deal.slot);
        groups.push_back(deal.group);
    }
    EXPECT_EQ(slots, (std::vector<std::size_t>{0, 2, 1, 6, 3, 4, 5}));
    EXPECT_EQ(groups, (std::vector<std::size_t>{0, 0, 1, 1, 2, 3, 4}));

    // Slots are positions in the given indices, grouped among those
    // points only.
    const auto subset = ShardedSweep::dealOrder(points, {1, 5, 6});
    ASSERT_EQ(subset.size(), 3u);
    EXPECT_EQ(subset[0].slot, 0u);
    EXPECT_EQ(subset[1].slot, 2u);
    EXPECT_EQ(subset[2].slot, 1u);
    EXPECT_EQ(subset[2].group, 1u);
}

TEST(ShardIndices, DisjointAndCovering)
{
    for (std::size_t total : {0u, 1u, 7u, 16u}) {
        const auto grid = interleavedGrid(total, 3);
        const auto order = ShardedSweep::dealOrder(grid, allIndices(total));
        for (unsigned count : {1u, 2u, 3u, 5u}) {
            std::set<std::size_t> seen;
            std::size_t position = 0;
            for (unsigned shard = 0; shard < count; ++shard) {
                const auto owned =
                    ShardedSweep::shardIndices(grid, {shard, count});
                EXPECT_TRUE(
                    std::is_sorted(owned.begin(), owned.end()));
                // Shard i owns the i-th contiguous run of the order.
                std::set<std::size_t> run;
                for (std::size_t i = 0; i < owned.size(); ++i)
                    run.insert(order.at(position++).slot);
                EXPECT_EQ(run, std::set<std::size_t>(owned.begin(),
                                                     owned.end()));
                for (std::size_t index : owned) {
                    EXPECT_LT(index, total);
                    EXPECT_TRUE(seen.insert(index).second)
                        << "index " << index << " owned twice";
                }
            }
            EXPECT_EQ(seen.size(), total);
        }
    }
}

TEST(ShardIndices, BalancedAndKeepsPassGroupsTogether)
{
    // fig06's 8 x 5 grid over 3 shards, and more shapes besides.
    for (const auto &[workloads, configs] :
         std::vector<std::pair<unsigned, unsigned>>{
             {8, 5}, {1, 7}, {3, 4}, {5, 5}, {16, 3}}) {
        const auto grid = blockGrid(workloads, configs);
        for (unsigned count : {1u, 2u, 3u, 4u}) {
            std::size_t smallest = grid.size(), largest = 0;
            std::vector<std::set<unsigned>> spans(workloads);
            for (unsigned shard = 0; shard < count; ++shard) {
                const auto owned =
                    ShardedSweep::shardIndices(grid, {shard, count});
                smallest = std::min(smallest, owned.size());
                largest = std::max(largest, owned.size());
                for (std::size_t index : owned)
                    spans[index / configs].insert(shard);
            }
            EXPECT_LE(largest - smallest, 1u)
                << workloads << "x" << configs << " over " << count;
            if (configs > smallest)
                continue;  // a group larger than a shard must split
            for (const auto &span : spans)
                EXPECT_LE(span.size(), 2u)
                    << workloads << "x" << configs << " over " << count;
        }
    }
}

TEST(ShardParse, AcceptsAndRejects)
{
    const auto shard = ShardedSweep::parseShard("1/3");
    EXPECT_EQ(shard.index, 1u);
    EXPECT_EQ(shard.count, 3u);

    const auto zero = ShardedSweep::parseShard("0/1");
    EXPECT_EQ(zero.index, 0u);
    EXPECT_EQ(zero.count, 1u);

    // strtol would happily take signs, spaces, and leading zeros;
    // only the canonical `digits/digits` spelling is a valid shard,
    // so the same string always names the same shard file.
    for (const char *bad : {"", "/", "1", "3/3", "4/3", "a/2", "1/b",
                            "-1/2", "1/0", "1/2x", "+1/4", " 1/4",
                            "1/+4", "1/ 4", "01/4", "1/04", "0x1/4",
                            "1//4", "1/4/4"}) {
        EXPECT_EXIT(ShardedSweep::parseShard(bad),
                    testing::ExitedWithCode(1), "shard")
            << "accepted '" << bad << "'";
    }
}

TEST(ShardedSweepRun, MatchesAcrossJobCountsAndSinkIsOrdered)
{
    const auto grid = smallGrid();

    RunnerPool serial_pool;
    ShardedSweep serial(serial_pool, 1);
    const auto reference = encodeAll(serial.run(grid));
    ASSERT_EQ(reference.size(), grid.size());

    RunnerPool parallel_pool;
    ShardedSweep parallel(parallel_pool, 4);
    std::vector<std::size_t> order;
    const auto results = parallel.run(
        grid, {},
        [&](std::size_t index, const ExperimentResult &) {
            order.push_back(index);
        });
    EXPECT_EQ(encodeAll(results), reference);

    // The sink saw every grid index, in ascending order.
    std::vector<std::size_t> expected(grid.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expected[i] = i;
    EXPECT_EQ(order, expected);
}

TEST(ShardedSweepRun, ThreadsTakePassGroupsBreadthFirst)
{
    // Two pass groups, interleaved in grid order: A at indices 0, 1, 4
    // and B at 2, 3. One thread completes points in the order it takes
    // them: every group's first point, then each group's rest.
    ExperimentConfig config;
    config.sliceThreshold = 0;
    std::vector<GridPoint> grid;
    grid.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    grid.push_back({"is", config, 2});
    config.sliceThreshold = 3;
    grid.push_back({"is", config, 2});
    config.mode = BerMode::kReCkpt;
    grid.push_back({"is", config, 2});
    config.sliceThreshold = 0;
    grid.push_back({"is", config, 2});

    RunnerPool pool;
    ShardedSweep sweep(pool, 1);
    ShardedSweep::SweepControls controls;
    std::vector<std::size_t> taken;
    controls.completed = [&](std::size_t index, const ExperimentResult &) {
        taken.push_back(index);
    };
    sweep.run(grid, {}, controls);
    EXPECT_EQ(taken, (std::vector<std::size_t>{0, 2, 1, 4, 3}));
    EXPECT_EQ(sweep.hostStats().get("sweep.slicePasses"), 2.0);
    EXPECT_EQ(pool.slicePassRuns(), 2u);
}

TEST(ShardedSweepRun, ShardsMergeToTheUnshardedResults)
{
    const auto grid = smallGrid();

    RunnerPool reference_pool;
    const auto reference =
        encodeAll(ShardedSweep(reference_pool, 1).run(grid));

    // Each shard in its own pool: nothing shared but the wire format,
    // exactly like two machines.
    std::vector<std::string> merged(grid.size());
    for (unsigned shard = 0; shard < 2; ++shard) {
        RunnerPool pool;
        ShardedSweep sweep(pool, 2);
        const auto owned =
            ShardedSweep::shardIndices(grid, {shard, 2});
        const auto results = sweep.run(grid, {shard, 2});
        ASSERT_EQ(results.size(), owned.size());
        for (std::size_t i = 0; i < owned.size(); ++i)
            merged[owned[i]] = wire::encodeResult(results[i]).dump();
    }
    EXPECT_EQ(merged, reference);
}

/**
 * The coordinator's end of a socketpair whose other end serves
 * ShardedSweep::childWorkerLoop on a thread — the `--worker` child of
 * a `--forks` sweep, in process.
 */
class ChildWorker
{
  public:
    ChildWorker()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        EXPECT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
        channel_ = std::make_unique<net::FrameChannel>(fds[0]);
        thread_ = std::thread([this, fd = fds[1]] {
            status_ = ShardedSweep::childWorkerLoop(pool_, fd);
        });
    }

    ~ChildWorker() { exitStatus(); }

    ChildWorker(const ChildWorker &) = delete;
    ChildWorker &operator=(const ChildWorker &) = delete;

    void
    send(net::FrameType type, const std::string &payload)
    {
        channel_->send(type, payload);
        std::string error;
        while (channel_->wantsWrite() &&
               channel_->flushWrites(error) == net::FrameChannel::Io::kOk)
            ;
    }

    /** Next wire record from the worker; false once it hung up. */
    bool
    receive(wire::Record &record)
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (inbox_.empty() && channel_->isOpen() &&
               std::chrono::steady_clock::now() < deadline) {
            pollfd pfd{channel_->fd(), POLLIN, 0};
            ::poll(&pfd, 1, 100);
            std::string error;
            channel_->readFrames(inbox_, error);
        }
        if (inbox_.empty())
            return false;
        EXPECT_EQ(inbox_.front().type, net::FrameType::kWire);
        record = wire::decodeLine(inbox_.front().payload);
        inbox_.erase(inbox_.begin());
        return true;
    }

    /** Hang up the coordinator's end and join the worker's exit. */
    int
    exitStatus()
    {
        channel_->close();
        if (thread_.joinable())
            thread_.join();
        return status_;
    }

  private:
    RunnerPool pool_;
    std::unique_ptr<net::FrameChannel> channel_;
    std::vector<net::Frame> inbox_;
    int status_ = -1;
    std::thread thread_;  ///< last: it uses pool_ and status_
};

TEST(WorkerLoop, SpeaksTheWireProtocol)
{
    const auto grid = smallGrid();

    RunnerPool reference_pool;
    const auto reference =
        encodeAll(ShardedSweep(reference_pool, 1).run(grid));

    ChildWorker child;
    wire::HelloRecord hello;
    hello.bench = "shard_test";
    hello.gridPoints = grid.size();
    hello.gridHash = wire::gridHash(grid);
    hello.netVersion = net::kProtocolVersion;
    child.send(net::FrameType::kWire, wire::encodeHelloLine(hello));

    // The child never enumerates the grid: it echoes the identity it
    // was offered.
    wire::Record record;
    ASSERT_TRUE(child.receive(record));
    ASSERT_EQ(record.type, wire::Record::Type::kHello);
    EXPECT_EQ(wire::encodeHelloLine(record.hello),
              wire::encodeHelloLine(hello));

    // Deal the points out of order to prove the worker echoes indices
    // rather than renumbering.
    for (std::size_t index : {2UL, 0UL, 4UL})
        child.send(net::FrameType::kWire,
                   wire::encodePointLine({index, grid[index]}));
    std::vector<std::uint64_t> indices;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(child.receive(record));
        ASSERT_EQ(record.type, wire::Record::Type::kResult);
        indices.push_back(record.result.index);
        EXPECT_EQ(wire::encodeResult(record.result.result).dump(),
                  reference[record.result.index]);
    }
    EXPECT_EQ(indices, (std::vector<std::uint64_t>{2, 0, 4}));

    // Only the coordinator's shutdown frame is a clean exit.
    child.send(net::FrameType::kShutdown, "");
    EXPECT_EQ(child.exitStatus(), 0);
}

TEST(WorkerLoop, RejectsGarbageWithNonzeroStatus)
{
    for (const char *garbage :
         {"{\"v\":2,\"type\":\"result\"}", "not a record"}) {
        ChildWorker child;
        child.send(net::FrameType::kWire, garbage);
        wire::Record record;
        EXPECT_FALSE(child.receive(record)) << garbage;
        EXPECT_NE(child.exitStatus(), 0) << garbage;
    }

    // A coordinator that vanishes without a shutdown frame is not a
    // clean end of sweep either.
    ChildWorker orphan;
    EXPECT_NE(orphan.exitStatus(), 0);
}

TEST(BenchMainFlags, OutOfRangeValuesExitNamingTheFlag)
{
    BenchSpec spec;
    spec.name = "shard_test";
    spec.grid = [](BenchContext &) {
        return std::vector<GridPoint>{smallGrid().front()};
    };
    spec.render = [](BenchContext &,
                     const std::vector<ExperimentResult> &) {};
    const auto run = [&spec](const std::string &flag) {
        const char *argv[] = {"shard_test", "--jobs=1", flag.c_str()};
        return benchMain(3, argv, spec);
    };

    // A steady_clock deadline overflows past ~9.2e9 s, NaN would turn
    // the watchdog off, and an unsigned count must not silently wrap.
    for (const std::string flag :
         {"--point-timeout=1e10", "--point-timeout=inf",
          "--point-timeout=nan", "--point-timeout=-2",
          "--retries=4294967296", "--retries=-1",
          "--forks=4294967296", "--jobs=4294967296"}) {
        EXPECT_EXIT(run(flag), testing::ExitedWithCode(1),
                    flag.substr(0, flag.find('=')))
            << flag;
    }

    // A long but finite watchdog is valid.
    EXPECT_EQ(run("--point-timeout=3600"), 0);
}

TEST(BenchMainFlags, MergeRefusalsExitNamingTheProblem)
{
    std::vector<GridPoint> grid = smallGrid();
    grid.resize(2);
    BenchSpec spec;
    spec.name = "shard_test";
    spec.grid = [&grid](BenchContext &) { return grid; };
    spec.render = [](BenchContext &,
                     const std::vector<ExperimentResult> &) {};

    const auto manifest = [&grid](const std::string &bench,
                                  std::uint64_t shard,
                                  std::uint64_t shards) {
        wire::ManifestRecord record;
        record.bench = bench;
        record.shard = shard;
        record.shardCount = shards;
        record.gridPoints = grid.size();
        record.gridHash = wire::gridHash(grid);
        return record;
    };
    const auto line = [&manifest](std::uint64_t shard,
                                  std::uint64_t shards) {
        return wire::encodeManifestLine(
            manifest("shard_test", shard, shards));
    };
    const auto result = [](std::uint64_t index) {
        ExperimentResult result;
        result.cycles = 100 + index;
        return wire::encodeResultLine({index, result});
    };
    auto other_grid = manifest("shard_test", 0, 1);
    other_grid.gridHash ^= 1;

    std::vector<std::string> written;
    const auto file = [&written](const std::vector<std::string> &lines) {
        const std::string path =
            testing::TempDir() + "acr_merge_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(written.size()) + ".ndjson";
        std::ofstream out(path, std::ios::trunc);
        for (const auto &text : lines)
            out << text << "\n";
        written.push_back(path);
        return path;
    };
    const auto merge = [&spec](const std::vector<std::string> &files) {
        std::string flag = "--merge=";
        for (const auto &path : files)
            flag += path + ",";
        const char *argv[] = {"shard_test", flag.c_str()};
        return benchMain(2, argv, spec);
    };

    const struct
    {
        std::vector<std::vector<std::string>> files;
        const char *message;
    } cases[] = {
        {{{wire::encodeManifestLine(manifest("other", 0, 1)), result(0),
           result(1)}},
         "belongs to bench 'other', not 'shard_test'"},
        {{{wire::encodeManifestLine(other_grid), result(0), result(1)}},
         "different grid"},
        {{{line(0, 2), result(0)}, {line(1, 3)}},
         "declares 1/3 but earlier files declared 1/2"},
        {{{line(0, 2), result(0)}, {line(0, 2)}}, "shard 0 appears twice"},
        {{{line(0, 2), result(0)}}, "shard 1/2 is missing from --merge"},
        {{{result(0), line(0, 1), result(1)}},
         "result record before the manifest"},
        {{{line(0, 2), result(1)}, {line(1, 2)}},
         "result index 1 does not belong to shard 0/2"},
        {{{line(0, 1), result(0), result(0), result(1)}},
         "duplicate result for index 0"},
        {{{line(2, 2), result(0)}}, "bad shard 2/2"},
        {{{line(0, 0), result(0)}}, "bad shard 0/0"},
    };
    for (const auto &refusal : cases) {
        std::vector<std::string> paths;
        for (const auto &lines : refusal.files)
            paths.push_back(file(lines));
        EXPECT_EXIT(merge(paths), testing::ExitedWithCode(1),
                    refusal.message)
            << refusal.message;
    }

    // The same inputs, well formed, merge cleanly.
    EXPECT_EQ(merge({file({line(0, 2), result(0)}),
                     file({line(1, 2), result(1)})}),
              0);

    // Membership follows the deal order, not the grid index: on four
    // points of one pass group, shard 0/2 owns 0 and 1 — where the
    // every-N-th-point rule would have given it 0 and 2.
    grid = smallGrid();
    grid.resize(4);
    EXPECT_EXIT(merge({file({line(0, 2), result(0), result(2)}),
                       file({line(1, 2), result(1), result(3)})}),
                testing::ExitedWithCode(1),
                "result index 2 does not belong to shard 0/2");
    EXPECT_EQ(merge({file({line(0, 2), result(0), result(1)}),
                     file({line(1, 2), result(2), result(3)})}),
              0);
    for (const auto &path : written)
        std::remove(path.c_str());
}

} // namespace
