/**
 * @file
 * ShardedSweep tests: the static partition is disjoint and covering,
 * "i/N" parsing is strict, the ordered sink fires in ascending grid
 * order even under parallel execution, shards executed in separate
 * pools merge to exactly the unsharded results (the wire encodings are
 * compared byte-for-byte), the --worker child loop speaks the framed
 * wire protocol over a socketpair, and benchMain refuses out-of-range
 * counts and watchdog timeouts.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
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

TEST(ShardIndices, DisjointAndCovering)
{
    for (std::size_t total : {0u, 1u, 7u, 16u}) {
        for (unsigned count : {1u, 2u, 3u, 5u}) {
            std::set<std::size_t> seen;
            for (unsigned shard = 0; shard < count; ++shard) {
                const auto owned = ShardedSweep::shardIndices(
                    total, {shard, count});
                EXPECT_TRUE(
                    std::is_sorted(owned.begin(), owned.end()));
                for (std::size_t index : owned) {
                    EXPECT_EQ(index % count, shard);
                    EXPECT_LT(index, total);
                    EXPECT_TRUE(seen.insert(index).second)
                        << "index " << index << " owned twice";
                }
            }
            EXPECT_EQ(seen.size(), total);
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
            ShardedSweep::shardIndices(grid.size(), {shard, 2});
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

} // namespace
