/**
 * @file
 * ShardedSweep: the one sweep executor. A coordinator enumerates an
 * experiment grid (std::vector<GridPoint>), puts it in one pass-group
 * deal order (dealOrder(): points that share a Runner slice pass are
 * adjacent), partitions it deterministically — `--shard=i/N` takes the
 * i-th contiguous, size-balanced chunk of that order for static
 * machine-level sharding — runs its slice on in-process threads or on
 * a supervised fleet of worker processes (local `--worker` children or
 * `--connect` workers) in the same order, and merges results back **in
 * grid order**, so the rendered output is bit-identical to a
 * `--jobs=1` single-process run no matter how the work was spread.
 *
 * Worker processes speak the wire format (harness/wire.hh) inside
 * length-delimited frames (harness/net.hh): a hello each way, then one
 * point record out and one result record back per experiment, so
 * results arrive (and the ordered sink fires) as they land rather than
 * at an end-of-sweep barrier.
 *
 * Host-side timing is deliberately kept OUT of ExperimentResult —
 * wall-clock depends on scheduling, and results must not — and lives
 * in hostStats() instead.
 */

#ifndef ACR_HARNESS_SHARDED_SWEEP_HH
#define ACR_HARNESS_SHARDED_SWEEP_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/net.hh"
#include "harness/runner.hh"
#include "harness/supervisor.hh"
#include "harness/wire.hh"

namespace acr::harness
{

/**
 * Lazily constructed Runners, one per simulated-machine core count
 * (GridPoint::threads). Thread-safe; references stay valid for the
 * pool's lifetime (each Runner is heap-allocated and itself
 * shareable across threads).
 */
class RunnerPool
{
  public:
    explicit RunnerPool(unsigned scale = 1) : scale_(scale) {}

    Runner &at(unsigned threads);

    /** Slice passes computed so far, summed over every Runner. */
    std::uint64_t slicePassRuns() const;

  private:
    mutable std::mutex mutex_;
    unsigned scale_;
    std::map<unsigned, std::unique_ptr<Runner>> runners_;
};

/** Multi-process/multi-thread sweep executor over one RunnerPool. */
class ShardedSweep
{
  public:
    /** A static partition: this invocation owns the index-th of count
     *  contiguous, size-balanced chunks of the grid's dealOrder(). */
    struct Shard
    {
        unsigned index;
        unsigned count;

        // An explicit constructor (not member initializers) so the
        // whole-grid default Shard() can appear in the enclosing
        // class's default arguments.
        constexpr Shard(unsigned index_ = 0, unsigned count_ = 1)
            : index(index_), count(count_)
        {
        }
    };

    /**
     * Ordered streaming sink: invoked with (grid index, result) in
     * strictly ascending grid-index order, each as soon as every
     * earlier owned point has completed — no end-of-run barrier. It
     * runs on whichever thread completed the prefix, one call at a
     * time.
     */
    using OrderedSink =
        std::function<void(std::size_t, const ExperimentResult &)>;

    /**
     * Completion-order sink: fires once per point *as it finishes*
     * (no ordering guarantee), before the ordered sink sees it — the
     * journal's and cache's insert hook. In-process sweeps invoke it
     * from worker threads; callers must make it thread-safe
     * (ResultCache::insert is).
     */
    using CompletionSink =
        std::function<void(std::size_t, const ExperimentResult &)>;

    /**
     * Everything a fault-tolerant sweep threads through the executor
     * beyond the grid itself. The plain run() overload taking an
     * OrderedSink forwards here with the defaults.
     */
    struct SweepControls
    {
        /** Ascending-grid-index streaming sink (may be empty). */
        OrderedSink sink;

        /** Completion-order insert hook (may be empty). */
        CompletionSink completed;

        /**
         * Already-completed results by grid index (journal and
         * result-cache hits); owned points found here are served
         * without re-simulation and never reach `completed`. Not
         * owned; may be null.
         */
        const std::map<std::size_t, ExperimentResult> *cache = nullptr;

        /** Fleet size (local fleet) and retry/backoff/watchdog knobs
         *  for the supervised executor. */
        Supervisor::Options supervise;
    };

    /**
     * @param pool shared Runner cache; not owned
     * @param jobs in-process worker threads (0: defaultJobs())
     */
    explicit ShardedSweep(RunnerPool &pool, unsigned jobs = 0);

    /** The --jobs default: ACR_JOBS if set to a positive integer, else
     *  std::thread::hardware_concurrency(). */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobs_; }

    /** One owned point in deal order: its merge slot and pass group. */
    struct Deal
    {
        std::size_t slot;   ///< position in the owned grid indices
        std::size_t group;  ///< pass group, numbered by first appearance
    };

    /**
     * The one deal order of every sweep mode (DESIGN.md §7): the
     * points at @p indices (ascending grid indices into @p points)
     * grouped by the Runner slice pass they share, keyed by (threads,
     * workload, resolved sliceThreshold, policy) exactly as Runner::run
     * resolves it. Groups are numbered and listed in first-appearance
     * order; inside a group, points keep grid order.
     */
    static std::vector<Deal>
    dealOrder(const std::vector<GridPoint> &points,
              const std::vector<std::size_t> &indices);

    /** Grid indices owned by @p shard, ascending: chunk shard.index
     *  of shard.count contiguous chunks of the whole grid's
     *  dealOrder(), sized to differ by at most one point. A pass group
     *  no larger than a chunk spans at most two shards. */
    static std::vector<std::size_t>
    shardIndices(const std::vector<GridPoint> &points, Shard shard);

    /** Parse "i/N" (0 <= i < N); fatal() on malformed input. */
    static Shard parseShard(const std::string &spec);

    /**
     * Execute this shard's slice of @p points on min(jobs, unserved
     * points) in-process threads — none when every owned point is
     * served. Threads take the deal order breadth-first: every pass
     * group's first point, then the rest group by group, so no thread
     * waits on a slice pass another thread started. Returns the owned
     * results in ascending grid-index order (all of them when shard is
     * the default whole-grid 0/1). Points must be independent: a
     * non-null config.trace sink must not be shared between points
     * (trace sinks are not synchronized).
     */
    std::vector<ExperimentResult>
    run(const std::vector<GridPoint> &points, Shard shard = {},
        const OrderedSink &sink = {});

    /** As above, with the full fault-tolerance controls (served
     *  results + completion hook; supervision options are unused on
     *  the in-process path, which cannot crash partially). */
    std::vector<ExperimentResult>
    run(const std::vector<GridPoint> &points, Shard shard,
        const SweepControls &controls);

    /**
     * Supervised multi-process execution of this shard's slice
     * (DESIGN.md §15) via Supervisor::run: points are dealt one at a
     * time, in deal order and pass-group affine, to idle
     * framed-channel members, a lost or wedged member's point is
     * retried with backoff, and a point that exhausts its
     * retries is delivered as an ExperimentResult::quarantined
     * placeholder. With @p workerCmd (argv of a `--worker` invocation
     * of this binary; see selfExecutable()) the fleet is
     * controls.supervise.workers local children (`--forks`); without,
     * it is whatever `--connect` workers dial @p net.listen
     * (`--listen`), which may churn freely. @p net supplies the bench
     * name and heartbeat; the grid identity is filled in here.
     * Cached points (journal / result cache) are served
     * coordinator-side and never dealt; a fully served grid returns
     * without starting a fleet. The same ordered merge applies, so
     * rendered output stays byte-identical to a local `--jobs=1` run.
     */
    std::vector<ExperimentResult>
    runDistributed(const std::vector<GridPoint> &points, Shard shard,
                   const std::vector<std::string> &workerCmd,
                   Supervisor::NetOptions net,
                   const SweepControls &controls);

    /**
     * The `--connect` side of a distributed sweep: dial the
     * coordinator, handshake (bench + grid identity + protocol
     * version, both directions), run dealt points, answer heartbeat
     * pings, and reconnect with the same identity after a dropped
     * connection. Exits 0 on the coordinator's shutdown frame; when
     * the reconnect window — ten heartbeats of continuous
     * disconnection — closes, exits 0 if the sweep was ever joined
     * (the coordinator finished and went away) and 1 if the
     * coordinator was never reachable. A handshake mismatch
     * (version/bench/grid skew) exits 1 immediately: reconnecting
     * cannot fix it.
     *
     * The childWorkerLoop fault hooks apply here too, and
     * ACR_NET_FAULT (net::FaultPlan) arms one transport fault on
     * outbound frames, with ordinals counted across reconnects.
     */
    static int netWorkerLoop(RunnerPool &pool, const std::string &bench,
                             const std::vector<GridPoint> &grid,
                             const net::Endpoint &coordinator,
                             unsigned heartbeatSec);

    /**
     * The `--worker` side of a local fleet: serve the framed channel
     * on @p fd (a socketpair end on stdin) — the same per-connection
     * loop as netWorkerLoop, minus its reconnects. The worker never
     * enumerates the grid: it checks only the protocol version of
     * the coordinator's hello, echoes the identity back, and
     * simulates the fully serialized points it is dealt. Returns 0
     * after the coordinator's shutdown frame, nonzero when the
     * channel closes or breaks first. Takes ownership of @p fd.
     *
     * Fault-injection hooks for the supervisor tests (inert unless
     * the environment variables are set): ACR_TEST_CRASH_AT=k
     * _exit(42)s before answering the k-th point this process reads;
     * ACR_TEST_WEDGE_AT=k blocks forever there instead (watchdog
     * bait). Both, and ACR_NET_FAULT, are suppressed when
     * ACR_TEST_RESPAWNED is set (the supervisor marks replacement
     * workers), so a retry succeeds. ACR_TEST_CRASH_INDEX=g is
     * sticky: every worker _exit(43)s on grid index g, forcing
     * quarantine.
     */
    static int childWorkerLoop(RunnerPool &pool, int fd);

    /** Path of the running binary (/proc/self/exe), for workerCmd;
     *  falls back to @p argv0. */
    static std::string selfExecutable(const std::string &argv0);

    /** Host-side timing of the most recent run()/runDistributed():
     *  sweep.jobs or sweep.forkedWorkers, sweep.points,
     *  sweep.wallMillis, and for in-process runs sweep.workMillis,
     *  sweep.slicePasses (passes this run computed) and
     *  sweep.point.<index>.millis. Supervised runs add the Supervisor counters
     *  (sweep.retries, sweep.workerCrashes, sweep.watchdogKills,
     *  sweep.quarantined, and sweep.respawns for a local fleet or
     *  sweep.netJoins and sweep.netLeaves for a remote one). */
    const StatSet &hostStats() const { return hostStats_; }

    /** One-line wall/work summary of the last run. */
    void reportTiming(std::ostream &os) const;

  private:
    RunnerPool &pool_;
    unsigned jobs_;
    StatSet hostStats_;
};

} // namespace acr::harness

#endif // ACR_HARNESS_SHARDED_SWEEP_HH
