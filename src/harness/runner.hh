/**
 * @file
 * Runner: benchmark-level orchestration used by every bench and example.
 * Caches base programs, slice-pass results (per workload × threshold ×
 * policy), and NoCkpt baselines so sweeps don't repeat work.
 *
 * Thread-safety contract (the substrate of harness::ShardedSweep): one Runner
 * may be shared by any number of threads. The three caches are
 * OnceCaches — each entry is computed exactly once (concurrent
 * requesters for the same key block until the first finishes) and is
 * immutable afterwards, so the references returned by baseProgram(),
 * profileAt(), and noCkpt() stay valid and safe to read concurrently
 * for the Runner's lifetime. run() itself touches no Runner state
 * beyond those caches and the immutable machine/params members; every
 * mutable experiment object (system, StatSet, Rng, checkpoint
 * substrate) lives inside BerRuntime::run's frame, owned by the calling
 * thread. Given that, results are bit-identical no matter how calls are
 * interleaved.
 */

#ifndef ACR_HARNESS_RUNNER_HH
#define ACR_HARNESS_RUNNER_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "acr/slice_pass.hh"
#include "common/once_cache.hh"
#include "harness/ber_runtime.hh"
#include "harness/experiment.hh"
#include "harness/prefix_share.hh"
#include "sim/machine_config.hh"
#include "workloads/workload.hh"

namespace acr::harness
{

/** Cached experiment driver for one machine size. */
class Runner
{
  public:
    /** Table I machine with @p threads cores; @p scale sizes kernels. */
    explicit Runner(unsigned threads = 8, unsigned scale = 1);

    /** The paper's per-benchmark slice threshold (footnote 4: 5 for is,
     *  10 otherwise). */
    static unsigned
    defaultThreshold(const std::string &workload)
    {
        return workload == "is" ? 5 : 10;
    }

    const sim::MachineConfig &machine() const { return machine_; }
    unsigned threads() const { return machine_.numCores; }

    /** The kernel program without slice hints. */
    const isa::Program &baseProgram(const std::string &workload);

    /**
     * Slice-pass result (hinted program + NoCkpt profile) for the given
     * threshold/policy; cached.
     */
    const amnesic::SlicePassResult &
    profileAt(const std::string &workload, unsigned threshold,
              slice::SelectionPolicy policy =
                  slice::SelectionPolicy::kGreedyThreshold);

    /** Pass at the workload's default threshold. */
    const amnesic::SlicePassResult &profile(const std::string &workload);

    /** Cached NoCkpt baseline measurement. */
    const ExperimentResult &noCkpt(const std::string &workload);

    /** Execute one experiment (threshold defaulted per workload when
     *  config.sliceThreshold == 0). */
    ExperimentResult run(const std::string &workload,
                         ExperimentConfig config);

    // Exactly-once audit counters (concurrency tests): how many times
    // each cache actually computed an entry.
    std::uint64_t programBuilds() const { return programs_.computes(); }
    std::uint64_t slicePassRuns() const { return passes_.computes(); }
    std::uint64_t noCkptRuns() const { return noCkpt_.computes(); }

    /**
     * Toggle error-free prefix sharing (DESIGN.md §13). Defaults from
     * the ACR_PREFIX_SHARE environment variable: on unless set to "0"
     * or "off". Sharing never changes any measured result — a resumed
     * run is instruction-identical to a from-scratch one — so the
     * toggle exists for A/B verification and bisection only.
     */
    void setPrefixShare(bool enabled) { prefixShare_ = enabled; }
    bool prefixShare() const { return prefixShare_; }

    /** Prefix snapshots taken so far (test observability). */
    std::uint64_t prefixCaptures() const { return prefixCaptures_; }
    /** Runs that resumed from a prefix snapshot (test observability). */
    std::uint64_t prefixResumes() const { return prefixResumes_; }

  private:
    sim::MachineConfig machine_;
    workloads::WorkloadParams params_;

    OnceCache<std::string, isa::Program> programs_;
    OnceCache<std::tuple<std::string, unsigned, int>,
              amnesic::SlicePassResult>
        passes_;
    OnceCache<std::string, ExperimentResult> noCkpt_;

    // --- Error-free prefix sharing ---
    // Snapshots are keyed by everything that shapes execution *before*
    // the first fault trigger (workload, scheme, coordination, placement,
    // ...); fault-plan parameters are deliberately absent — the injector
    // is a no-op until its first trigger, so runs differing only in
    // them share the same prefix. A consumer picks the deepest snapshot
    // not past its own first trigger.
    bool prefixShare_;
    std::mutex prefixMutex_;
    std::map<std::string,
             std::vector<std::shared_ptr<const PrefixSnapshot>>>
        prefixCache_;
    std::uint64_t prefixCaptures_ = 0;
    std::uint64_t prefixResumes_ = 0;
};

} // namespace acr::harness

#endif // ACR_HARNESS_RUNNER_HH
