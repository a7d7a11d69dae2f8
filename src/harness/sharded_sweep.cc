#include "harness/sharded_sweep.hh"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <ostream>
#include <thread>
#include <tuple>

#include "common/logging.hh"
#include "common/options.hh"

namespace acr::harness
{

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Parse a numeric environment variable (0 when unset/empty);
 *  fatal() on garbage — "4x" must not silently mean 4. */
unsigned long long
envCount(const char *name)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return 0;
    unsigned long long parsed = 0;
    if (!parseStrictUint(value, parsed))
        fatal("%s='%s' is not an unsigned integer", name, value);
    return parsed;
}

/**
 * The worker-side fault-injection hooks (doc on the childWorkerLoop
 * declaration), shared by the `--worker` and `--connect` loops; all
 * inert unless the environment arms them.
 */
struct WorkerHooks
{
    bool respawned = false;
    unsigned long long crashAt = 0;
    unsigned long long wedgeAt = 0;
    bool haveCrashIndex = false;
    unsigned long long crashIndex = 0;
    unsigned long long processed = 0;

    static WorkerHooks
    fromEnv()
    {
        WorkerHooks hooks;
        hooks.respawned =
            std::getenv("ACR_TEST_RESPAWNED") != nullptr;
        hooks.crashAt = envCount("ACR_TEST_CRASH_AT");
        hooks.wedgeAt = envCount("ACR_TEST_WEDGE_AT");
        const char *crash_index =
            std::getenv("ACR_TEST_CRASH_INDEX");
        // 0 is a valid grid index, so presence (not value) arms it.
        hooks.haveCrashIndex =
            crash_index != nullptr && *crash_index != '\0';
        hooks.crashIndex =
            hooks.haveCrashIndex ? envCount("ACR_TEST_CRASH_INDEX")
                                 : 0;
        return hooks;
    }

    /** Call once per dealt point, before simulating it; _exit(42)s,
     *  wedges, or _exit(43)s per the armed hooks. */
    void
    onPoint(std::uint64_t grid_index)
    {
        ++processed;
        if (!respawned && crashAt != 0 && processed == crashAt)
            ::_exit(42);
        if (!respawned && wedgeAt != 0 && processed == wedgeAt) {
            while (true)
                ::pause();
        }
        if (haveCrashIndex && grid_index == crashIndex)
            ::_exit(43);
    }
};

/** How one coordinator connection ended. */
enum class ChannelEnd
{
    kShutdown,  ///< the coordinator's clean end of sweep
    kLost,      ///< closed, broken, or a protocol error
    kMismatch,  ///< handshake skew: reconnecting cannot fix it
};

/**
 * The per-connection worker body shared by `--connect` and `--worker`:
 * handshake, then answer pings and simulate dealt points until a
 * shutdown frame, a close, or a protocol error (reported in @p error
 * or on stderr). @p offer is the hello a `--connect` worker sends up
 * front and requires back; a `--worker` child passes null, checks only
 * the coordinator's protocol version, and echoes its identity. Sets
 * @p joined once the handshake succeeds.
 */
ChannelEnd
serveChannel(RunnerPool &pool, net::FrameChannel &channel,
             const wire::HelloRecord *offer, WorkerHooks &hooks,
             bool &joined, std::string &error)
{
    if (offer != nullptr)
        channel.send(net::FrameType::kWire,
                     wire::encodeHelloLine(*offer));
    while (channel.isOpen()) {
        if (channel.flushWrites(error) == net::FrameChannel::Io::kClosed)
            break;
        pollfd pfd{channel.fd(), POLLIN, 0};
        if (channel.wantsWrite())
            pfd.events |= POLLOUT;
        const int rc = ::poll(&pfd, 1, 200);
        if (rc < 0 && errno != EINTR)
            fatal("poll: %s", std::strerror(errno));
        if (rc <= 0)
            continue;
        std::vector<net::Frame> frames;
        const auto io = channel.readFrames(frames, error);
        for (const auto &frame : frames) {
            if (frame.type == net::FrameType::kPing) {
                channel.send(net::FrameType::kPong, "");
                continue;
            }
            if (frame.type == net::FrameType::kShutdown) {
                channel.flushWrites(error);
                return ChannelEnd::kShutdown;
            }
            if (frame.type != net::FrameType::kWire)
                continue;  // a stray pong is harmless
            wire::Record record;
            try {
                record = wire::decodeLine(frame.payload);
            } catch (const serde::SerdeError &err) {
                std::fprintf(stderr,
                             "[net] protocol error from coordinator: "
                             "%s\n",
                             err.what());
                return ChannelEnd::kLost;
            }
            if (!joined) {
                if (record.type != wire::Record::Type::kHello) {
                    std::fprintf(stderr, "[net] coordinator spoke "
                                         "before its hello\n");
                    return ChannelEnd::kLost;
                }
                const auto &hello = record.hello;
                wire::HelloRecord mine = offer ? *offer : hello;
                mine.netVersion = net::kProtocolVersion;
                if (hello.netVersion != mine.netVersion ||
                    hello.bench != mine.bench ||
                    hello.gridPoints != mine.gridPoints ||
                    hello.gridHash != mine.gridHash) {
                    std::fprintf(
                        stderr,
                        "[net] handshake mismatch: coordinator runs "
                        "bench '%s' with %llu point(s) (grid %016llx, "
                        "net v%llu); this worker built '%s' with %llu "
                        "(grid %016llx, net v%llu)\n",
                        hello.bench.c_str(),
                        static_cast<unsigned long long>(
                            hello.gridPoints),
                        static_cast<unsigned long long>(hello.gridHash),
                        static_cast<unsigned long long>(
                            hello.netVersion),
                        mine.bench.c_str(),
                        static_cast<unsigned long long>(mine.gridPoints),
                        static_cast<unsigned long long>(mine.gridHash),
                        static_cast<unsigned long long>(
                            mine.netVersion));
                    return ChannelEnd::kMismatch;
                }
                if (offer == nullptr)
                    channel.send(net::FrameType::kWire,
                                 wire::encodeHelloLine(mine));
                joined = true;
                continue;
            }
            if (record.type != wire::Record::Type::kPoint) {
                std::fprintf(stderr, "[net] unexpected record from "
                                     "coordinator\n");
                return ChannelEnd::kLost;
            }
            hooks.onPoint(record.point.index);
            const GridPoint &point = record.point.point;
            ExperimentResult result =
                pool.at(point.threads).run(point.workload, point.config);
            channel.send(net::FrameType::kWire,
                         wire::encodeResultLine(
                             {record.point.index, std::move(result)}));
        }
        if (io == net::FrameChannel::Io::kClosed)
            break;
    }
    return ChannelEnd::kLost;
}

/**
 * The one ordered delivery of both executors: slots fill in any order,
 * from any thread, and each deliver() fires the sink — under the lock,
 * so sink calls never overlap — for every slot of the grown ready
 * prefix, strictly in ascending order.
 */
class OrderedMerger
{
  public:
    OrderedMerger(const std::vector<std::size_t> &grid_indices,
                  const ShardedSweep::OrderedSink &sink)
        : indices_(grid_indices), sink_(sink),
          results_(grid_indices.size()), done_(grid_indices.size(), false)
    {
    }

    void
    deliver(std::size_t slot, ExperimentResult result)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ACR_ASSERT(!done_[slot], "slot %zu delivered twice", slot);
        results_[slot] = std::move(result);
        done_[slot] = true;
        for (; next_ < results_.size() && done_[next_]; ++next_)
            if (sink_)
                sink_(indices_[next_], results_[next_]);
    }

    /** Every slot's result, once all have been delivered. */
    std::vector<ExperimentResult>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ACR_ASSERT(next_ == results_.size(),
                   "sweep finished with %zu of %zu slots", next_,
                   results_.size());
        return std::move(results_);
    }

  private:
    std::mutex mutex_;
    const std::vector<std::size_t> &indices_;
    const ShardedSweep::OrderedSink &sink_;
    std::vector<ExperimentResult> results_;
    std::vector<bool> done_;
    std::size_t next_ = 0;
};

/** Deliver every owned point controls.cache already holds (journal and
 *  result-cache hits); return the rest of @p points' deal order, the
 *  points left to simulate. */
std::vector<ShardedSweep::Deal>
serveCompleted(const ShardedSweep::SweepControls &controls,
               const std::vector<GridPoint> &points,
               const std::vector<std::size_t> &grid_indices,
               OrderedMerger &merger)
{
    std::vector<ShardedSweep::Deal> pending;
    for (const auto &deal : ShardedSweep::dealOrder(points, grid_indices)) {
        if (controls.cache != nullptr) {
            const auto hit = controls.cache->find(grid_indices[deal.slot]);
            if (hit != controls.cache->end()) {
                merger.deliver(deal.slot, hit->second);
                continue;
            }
        }
        pending.push_back(deal);
    }
    return pending;
}

/** A worker process's clean-exit report on stderr. */
void
reportWork(const RunnerPool &pool, const WorkerHooks &hooks)
{
    std::fprintf(stderr, "[worker] %llu point(s), %llu slice pass(es)\n",
                 hooks.processed,
                 static_cast<unsigned long long>(pool.slicePassRuns()));
}

} // namespace

Runner &
RunnerPool::at(unsigned threads)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = runners_[threads];
    if (!slot)
        slot = std::make_unique<Runner>(threads, scale_);
    return *slot;
}

std::uint64_t
RunnerPool::slicePassRuns() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t runs = 0;
    for (const auto &[threads, runner] : runners_)
        runs += runner->slicePassRuns();
    return runs;
}

ShardedSweep::ShardedSweep(RunnerPool &pool, unsigned jobs)
    : pool_(pool), jobs_(jobs > 0 ? jobs : defaultJobs())
{
}

unsigned
ShardedSweep::defaultJobs()
{
    if (const char *env = std::getenv("ACR_JOBS")) {
        long long value = 0;
        if (parseStrictInt(env, value) && value > 0 &&
            value <= std::numeric_limits<unsigned>::max())
            return static_cast<unsigned>(value);
        warn("ignoring ACR_JOBS='%s' (want a positive integer)", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::vector<ShardedSweep::Deal>
ShardedSweep::dealOrder(const std::vector<GridPoint> &points,
                        const std::vector<std::size_t> &indices)
{
    // Runner::profileAt's cache key, within the RunnerPool's Runner
    // for the point's core count.
    using PassKey = std::tuple<unsigned, std::string, unsigned, int>;
    std::map<PassKey, std::size_t> groups;
    std::vector<Deal> order;
    for (std::size_t slot = 0; slot < indices.size(); ++slot) {
        const GridPoint &point = points[indices[slot]];
        const unsigned threshold =
            point.config.sliceThreshold != 0
                ? point.config.sliceThreshold
                : Runner::defaultThreshold(point.workload);
        const PassKey key{point.threads, point.workload, threshold,
                          static_cast<int>(point.config.policy)};
        order.push_back(
            {slot, groups.emplace(key, groups.size()).first->second});
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Deal &a, const Deal &b) {
                         return a.group < b.group;
                     });
    return order;
}

std::vector<std::size_t>
ShardedSweep::shardIndices(const std::vector<GridPoint> &points,
                           Shard shard)
{
    ACR_ASSERT(shard.count > 0 && shard.index < shard.count,
               "bad shard %u/%u", shard.index, shard.count);
    std::vector<std::size_t> all(points.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const auto order = dealOrder(points, all);
    const std::size_t begin = order.size() * shard.index / shard.count;
    const std::size_t end = order.size() * (shard.index + 1) / shard.count;
    std::vector<std::size_t> indices;
    for (std::size_t i = begin; i < end; ++i)
        indices.push_back(order[i].slot);
    std::sort(indices.begin(), indices.end());
    return indices;
}

ShardedSweep::Shard
ShardedSweep::parseShard(const std::string &spec)
{
    // Canonical "digits/digits" only. CI templating stamps these out
    // mechanically, and strtol's leniency ("+1/4", " 1/4", "01/4")
    // would let non-canonical spellings silently alias a shard.
    auto canonical = [](const std::string &text) {
        if (text.empty())
            return false;
        for (const char c : text)
            if (c < '0' || c > '9')
                return false;
        return text.size() == 1 || text[0] != '0';
    };
    const auto slash = spec.find('/');
    unsigned long long index = 0, count = 0;
    bool ok = slash != std::string::npos;
    if (ok) {
        const std::string left = spec.substr(0, slash);
        const std::string right = spec.substr(slash + 1);
        ok = canonical(left) && canonical(right) &&
             parseStrictUint(left, index) &&
             parseStrictUint(right, count);
    }
    if (!ok || count == 0 || index >= count ||
        count > std::numeric_limits<unsigned>::max())
        fatal("bad --shard '%s' (want canonical i/N with 0 <= i < N)",
              spec.c_str());
    return Shard{static_cast<unsigned>(index),
                 static_cast<unsigned>(count)};
}

std::vector<ExperimentResult>
ShardedSweep::run(const std::vector<GridPoint> &points, Shard shard,
                  const OrderedSink &sink)
{
    SweepControls controls;
    controls.sink = sink;
    return run(points, shard, controls);
}

std::vector<ExperimentResult>
ShardedSweep::run(const std::vector<GridPoint> &points, Shard shard,
                  const SweepControls &controls)
{
    const auto indices = shardIndices(points, shard);
    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint64_t passes_before = pool_.slicePassRuns();
    std::vector<double> point_millis(indices.size(), 0.0);

    OrderedMerger merger(indices, controls.sink);
    const auto deals = serveCompleted(controls, points, indices, merger);
    // Breadth-first over the pass groups: each group's first point,
    // then the rest group by group.
    std::vector<std::size_t> pending, rest;
    for (std::size_t i = 0; i < deals.size(); ++i) {
        const bool head = i == 0 || deals[i].group != deals[i - 1].group;
        (head ? pending : rest).push_back(deals[i].slot);
    }
    pending.insert(pending.end(), rest.begin(), rest.end());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= pending.size())
                return;
            const std::size_t slot = pending[i];
            const GridPoint &point = points[indices[slot]];
            const auto point_start = std::chrono::steady_clock::now();
            auto result =
                pool_.at(point.threads).run(point.workload, point.config);
            point_millis[slot] = millisSince(point_start);
            if (controls.completed)
                controls.completed(indices[slot], result);
            merger.deliver(slot, std::move(result));
        }
    };
    // A fully served grid starts no threads; --jobs=1 runs on one.
    std::vector<std::thread> threads;
    const std::size_t workers =
        std::min<std::size_t>(jobs_, pending.size());
    for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (auto &thread : threads)
        thread.join();
    auto results = merger.take();

    hostStats_.clear();
    hostStats_.set("sweep.jobs", static_cast<double>(jobs_));
    hostStats_.set("sweep.points", static_cast<double>(indices.size()));
    hostStats_.set("sweep.wallMillis", millisSince(wall_start));
    double work = 0.0;
    for (std::size_t slot = 0; slot < indices.size(); ++slot) {
        hostStats_.set(csprintf("sweep.point.%03zu.millis",
                                indices[slot]),
                       point_millis[slot]);
        work += point_millis[slot];
    }
    hostStats_.set("sweep.workMillis", work);
    hostStats_.set("sweep.slicePasses",
                   static_cast<double>(pool_.slicePassRuns() -
                                       passes_before));
    return results;
}

std::vector<ExperimentResult>
ShardedSweep::runDistributed(const std::vector<GridPoint> &points,
                             Shard shard,
                             const std::vector<std::string> &workerCmd,
                             Supervisor::NetOptions net,
                             const SweepControls &controls)
{
    for (const auto &point : points)
        if (point.config.trace != nullptr)
            fatal("GridPoint trace sinks cannot cross a process "
                  "boundary; use the in-process executor");

    const auto indices = shardIndices(points, shard);
    const auto wall_start = std::chrono::steady_clock::now();

    // The supervisor delivers in completion order; the merger fires
    // the ordered sink as the completed prefix grows, so rendered
    // output stays byte-identical to a --jobs=1 run regardless of
    // crashes, retries, or journal hits.
    OrderedMerger merger(indices, controls.sink);
    std::vector<Supervisor::Task> tasks;
    for (const auto &deal :
         serveCompleted(controls, points, indices, merger))
        tasks.push_back({deal.slot, indices[deal.slot],
                         &points[indices[deal.slot]], deal.group});

    const bool local = !workerCmd.empty();
    StatSet supervision;
    if (!tasks.empty()) {
        net.gridPoints = points.size();
        net.gridHash = wire::gridHash(points);
        Supervisor supervisor =
            local ? Supervisor(workerCmd, controls.supervise)
                  : Supervisor(controls.supervise);
        supervisor.run(
            tasks, net,
            [&](const Supervisor::Task &task, ExperimentResult result) {
                if (controls.completed)
                    controls.completed(task.gridIndex, result);
                merger.deliver(task.slot, std::move(result));
            },
            supervision);
    }
    auto results = merger.take();

    hostStats_.clear();
    // reportTiming() tells the modes apart by these keys, so set them
    // even when no fleet ever started (a fully served grid).
    if (local) {
        hostStats_.set("sweep.forkedWorkers",
                       static_cast<double>(std::min<std::size_t>(
                           std::max(1u, controls.supervise.workers),
                           tasks.empty() ? 1 : tasks.size())));
    } else {
        hostStats_.set("sweep.netJoins", 0.0);
        hostStats_.set("sweep.netLeaves", 0.0);
    }
    hostStats_.set("sweep.points", static_cast<double>(indices.size()));
    hostStats_.set("sweep.wallMillis", millisSince(wall_start));
    hostStats_.merge(supervision);
    return results;
}

int
ShardedSweep::netWorkerLoop(RunnerPool &pool, const std::string &bench,
                            const std::vector<GridPoint> &grid,
                            const net::Endpoint &coordinator,
                            unsigned heartbeatSec)
{
    ACR_ASSERT(heartbeatSec > 0, "heartbeat must be positive");
    // A coordinator dying mid-frame must surface as a closed channel
    // (triggering a reconnect), not kill the worker.
    std::signal(SIGPIPE, SIG_IGN);

    // One process-wide fault plan: frame ordinals keep counting
    // across reconnects, so "torn=3" tears the third frame this
    // process ever sends no matter how many connections that takes.
    net::FaultPlan fault = net::FaultPlan::fromEnv();
    WorkerHooks hooks = WorkerHooks::fromEnv();

    wire::HelloRecord identity;
    identity.bench = bench;
    identity.gridPoints = grid.size();
    identity.gridHash = wire::gridHash(grid);
    identity.netVersion = net::kProtocolVersion;

    using Clock = std::chrono::steady_clock;
    const auto window =
        std::chrono::seconds(static_cast<long long>(heartbeatSec) * 10);
    auto down_since = Clock::now();
    bool ever_joined = false;

    while (true) {
        std::string error;
        const int fd = net::connectOnce(coordinator, error);
        if (fd < 0) {
            if (Clock::now() - down_since <= window) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                continue;
            }
            // Reconnect window exhausted: a worker that saw the sweep
            // is a clean straggler (the coordinator finished and
            // left), one that never reached a coordinator is an error.
            std::fprintf(stderr,
                         "[net] giving up on %s after %llus "
                         "disconnected: %s\n",
                         coordinator.describe().c_str(),
                         static_cast<unsigned long long>(heartbeatSec) *
                             10,
                         error.c_str());
            if (!ever_joined)
                return 1;
            reportWork(pool, hooks);
            return 0;
        }
        net::FrameChannel channel(fd, &fault);
        bool joined = false;
        const ChannelEnd end =
            serveChannel(pool, channel, &identity, hooks, joined, error);
        ever_joined = ever_joined || joined;
        down_since = Clock::now();  // connected counts as healthy
        if (end == ChannelEnd::kShutdown) {
            reportWork(pool, hooks);
            return 0;
        }
        if (end == ChannelEnd::kMismatch)
            return 1;  // version/bench/grid skew: reconnecting is futile
        if (!error.empty())
            std::fprintf(stderr, "[net] connection to %s lost: %s\n",
                         coordinator.describe().c_str(),
                         error.c_str());
    }
}

int
ShardedSweep::childWorkerLoop(RunnerPool &pool, int fd)
{
    std::signal(SIGPIPE, SIG_IGN);
    WorkerHooks hooks = WorkerHooks::fromEnv();
    net::FaultPlan fault =
        hooks.respawned ? net::FaultPlan{} : net::FaultPlan::fromEnv();
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("fcntl(O_NONBLOCK): %s", std::strerror(errno));
    net::FrameChannel channel(fd, &fault);
    bool joined = false;
    std::string error;
    const ChannelEnd end =
        serveChannel(pool, channel, nullptr, hooks, joined, error);
    if (end == ChannelEnd::kShutdown) {
        reportWork(pool, hooks);
        return 0;
    }
    if (!error.empty())
        std::fprintf(stderr, "sweep worker: %s\n", error.c_str());
    return 1;
}

std::string
ShardedSweep::selfExecutable(const std::string &argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0)
        return std::string(buf, static_cast<std::size_t>(n));
    return argv0;
}

void
ShardedSweep::reportTiming(std::ostream &os) const
{
    const double wall = hostStats_.get("sweep.wallMillis");
    os << "[sweep] " << hostStats_.get("sweep.points") << " points";
    if (hostStats_.has("sweep.netJoins")) {
        os << " via --listen: " << wall << " ms wall, "
           << hostStats_.get("sweep.netJoins") << " worker join(s), "
           << hostStats_.get("sweep.netLeaves") << " leave(s)\n";
        const double losses = hostStats_.get("sweep.workerCrashes");
        const double kills = hostStats_.get("sweep.watchdogKills");
        if (losses > 0 || kills > 0) {
            os << "[sweep] supervision: " << losses
               << " connection loss(es), " << kills
               << " watchdog kill(s), "
               << hostStats_.get("sweep.retries") << " retr(y/ies), "
               << hostStats_.get("sweep.quarantined")
               << " quarantined\n";
        }
        return;
    }
    if (hostStats_.has("sweep.forkedWorkers")) {
        os << " on " << hostStats_.get("sweep.forkedWorkers")
           << " forked worker(s): " << wall << " ms wall\n";
        const double crashes = hostStats_.get("sweep.workerCrashes");
        const double kills = hostStats_.get("sweep.watchdogKills");
        if (crashes > 0 || kills > 0) {
            os << "[sweep] supervision: " << crashes
               << " worker crash(es), " << kills
               << " watchdog kill(s), "
               << hostStats_.get("sweep.retries") << " retr(y/ies), "
               << hostStats_.get("sweep.respawns") << " respawn(s), "
               << hostStats_.get("sweep.quarantined")
               << " quarantined\n";
        }
        return;
    }
    const double work = hostStats_.get("sweep.workMillis");
    os << " on " << jobs_ << " job(s): " << wall << " ms wall, " << work
       << " ms of work (parallelism "
       << (wall > 0.0 ? work / wall : 0.0) << "x)\n";
    os << "[sweep] " << hostStats_.get("sweep.slicePasses")
       << " slice pass(es)\n";
}

} // namespace acr::harness
