/**
 * @file
 * Fault-tolerant execution layer under harness::ShardedSweep — the
 * paper's checkpoint/recovery discipline applied to the harness's own
 * long-running sweeps (DESIGN.md §10). Two pieces:
 *
 * `Supervisor` deals points one at a time to a fleet of framed-channel
 * members (harness/net.hh) from a single-threaded poll() loop. The
 * fleet is either local — `--worker` children forked over socketpairs
 * (`--forks`), kept at strength, SIGKILLed by the per-point watchdog
 * and reaped so their wait status names each crash — or remote —
 * `--connect` workers accepted over TCP (`--listen`). A failed point
 * is retried on another member with jittered exponential backoff; a
 * point that exhausts its retries is *quarantined* — delivered as an
 * `ExperimentResult::quarantined` placeholder (a `failed` wire record
 * downstream) so the sweep completes around it instead of aborting.
 *
 * `Journal` is the crash-safe completion log behind `--journal` /
 * `--resume`: each completed point is appended as one fsync'd
 * canonical ndjson record, and a reload validates the header against
 * the current grid (bench, shard, gridHash), tolerates a torn final
 * line (dropped), and serves already-completed points without
 * re-simulating them — which doubles as a result cache across repeated
 * bench invocations.
 *
 * Determinism contract: a result is byte-identical whether it came
 * from a first-try worker, a retried worker, or the journal; only
 * host-side timing (stderr) differs.
 */

#ifndef ACR_HARNESS_SUPERVISOR_HH
#define ACR_HARNESS_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/durable_log.hh"
#include "harness/net.hh"
#include "harness/wire.hh"

namespace acr::harness
{

/** Local- and TCP-member supervision: retry/backoff/watchdog/
 *  quarantine over an elastic fleet. */
class Supervisor
{
  public:
    struct Options
    {
        /** Local fleet size: live `--worker` children (clamped to the
         *  outstanding task count). */
        unsigned workers = 1;

        /** Retries after a point's first failed attempt; a point that
         *  fails 1 + retries attempts is quarantined. */
        unsigned retries = 2;

        /** Per-point wall-clock watchdog in seconds; a member that
         *  holds a point longer is dropped (a local child SIGKILLed)
         *  and the point retried. 0 disables the watchdog. */
        double pointTimeoutSec = 0.0;

        /** First retry delay; doubles per subsequent attempt. */
        double backoffBaseSec = 0.05;

        /** Backoff growth cap. */
        double backoffCapSec = 2.0;

        /** Seed for the backoff jitter (timing only — results are
         *  unaffected). */
        std::uint64_t jitterSeed = 0x5eed;
    };

    /**
     * Fleet knobs shared by both member kinds (DESIGN.md §15): the
     * identity every member's handshake must echo, the heartbeat, and
     * — remote fleet only — where to accept TCP workers. The
     * heartbeat paces keepalive pings; idle members time out after
     * four missed heartbeats, and an empty fleet with queued work is
     * given eight heartbeats for a (re)join before every queued point
     * is quarantined — the sweep degrades to FAILED cells, it never
     * hangs.
     */
    struct NetOptions
    {
        net::Endpoint listen;       ///< remote fleet; port 0: kernel-picked
        unsigned heartbeatSec = 5;  ///< keepalive ping cadence

        /** Handshake identity: a worker whose hello disagrees on any
         *  of these (or on net::kProtocolVersion) is rejected. */
        std::string bench;
        std::uint64_t gridPoints = 0;
        std::uint64_t gridHash = 0;
    };

    /** One unit of supervised work. */
    struct Task
    {
        std::size_t slot = 0;       ///< caller's merge slot
        std::size_t gridIndex = 0;  ///< index the worker echoes back
        const GridPoint *point = nullptr;
    };

    /**
     * Fires once per task, in completion order, with either the
     * decoded worker result or the quarantine placeholder
     * (`result.failed`). The callback runs on the supervising thread.
     */
    using Deliver =
        std::function<void(const Task &, ExperimentResult)>;

    /** Local fleet: fork Options::workers children running
     *  @p workerCmd, argv of a `--worker` invocation of this very
     *  binary (see ShardedSweep::selfExecutable). */
    Supervisor(std::vector<std::string> workerCmd, Options options);

    /** Remote fleet: `--connect` workers dial NetOptions::listen. */
    explicit Supervisor(Options options);

    /**
     * Run every task to completion (success or quarantine). A remote
     * fleet listens on @p net.listen and announces the bound endpoint
     * (port 0 resolved) as "[net] listening on HOST:PORT" on stderr;
     * membership is elastic — workers may join late, leave idle,
     * crash busy, or reconnect. A local fleet forks its members and
     * replaces each one it loses. Either way a lost busy member's
     * point re-enters the one retry/backoff/quarantine ladder.
     * Counters in @p stats: sweep.retries, sweep.workerCrashes (busy
     * member losses), sweep.watchdogKills, sweep.quarantined, plus
     * sweep.respawns for a local fleet or sweep.netJoins and
     * sweep.netLeaves for a remote one.
     */
    void run(const std::vector<Task> &tasks, const NetOptions &net,
             const Deliver &deliver, StatSet &stats);

    /** Backoff before attempt @p tries+1 of @p gridIndex, in seconds:
     *  capped exponential with deterministic jitter in [0.5, 1.5)x.
     *  Exposed for tests. */
    static double backoffSeconds(const Options &options, unsigned tries,
                                 std::size_t gridIndex);

  private:
    std::vector<std::string> workerCmd_;
    Options options_;
};

/**
 * Crash-safe sweep completion log: a manifest header identifying the
 * grid, then one fsync'd `result`/`failed` ndjson record per completed
 * point, appended in completion order.
 */
class Journal
{
  public:
    Journal() = default;
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open @p path for the sweep @p bench is about to run over
     * @p grid (shard @p shard of it). With @p resume, an existing
     * journal is validated — bench name, shard, grid size, and
     * gridHash must match, else fatal() — and its completed results
     * load into entries(); a torn final line (no trailing newline or
     * unparseable tail) is dropped, and `failed` records are skipped
     * so quarantined points rerun. Without @p resume, or when the
     * file is missing/empty, the journal starts fresh with a new
     * header. fatal()s on I/O errors or a corrupt (non-tail) record.
     */
    void open(const std::string &path, bool resume,
              const std::string &bench, std::uint64_t shard_index,
              std::uint64_t shard_count,
              const std::vector<GridPoint> &grid);

    /** Completed points loaded from the journal, by grid index. */
    const std::map<std::size_t, ExperimentResult> &entries() const
    {
        return entries_;
    }

    /** True after open() — including after a write-failure degrade
     *  (loaded entries are still served; only appends stopped). */
    bool isOpen() const { return log_.isOpen(); }

    /** The backing file was disabled by a failed append/fsync. */
    bool degraded() const { return log_.degraded(); }

    /** Test hook: make the next append fail as if the disk were full
     *  (exercises the ENOSPC degrade path without a full disk). */
    void failNextWriteForTest();

    /**
     * Append one completed point (fsync'd before returning), as a
     * `result` record — or a `failed` record when
     * @p result.failed. Thread-safe: in-process sweeps append from
     * worker threads. A failed append (ENOSPC, EIO) disables the
     * journal with a one-line warning instead of killing the sweep:
     * the run completes, it just cannot be resumed past this point.
     */
    void record(std::size_t gridIndex, const ExperimentResult &result);

    /** Records appended by this process (excludes loaded entries). */
    std::uint64_t appended() const { return appended_; }

    void close();

  private:
    std::mutex mutex_;
    DurableLog log_{"journal", "journaling disabled — the sweep "
                               "continues but cannot resume past this "
                               "point"};
    std::uint64_t appended_ = 0;
    std::map<std::size_t, ExperimentResult> entries_;
};

} // namespace acr::harness

#endif // ACR_HARNESS_SUPERVISOR_HH
