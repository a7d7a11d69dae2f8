/**
 * @file
 * The benchmark's experiment grids and the deterministic per-point
 * record both acrbench programs print, so the in-process pass and every
 * sweep-fabric mode can be byte-compared point for point.
 */

#ifndef ACRBENCH_GRIDS_HH
#define ACRBENCH_GRIDS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/wire.hh"

namespace acrbench
{

/** The paper's machine: 8 cores, Table I. */
inline constexpr unsigned kThreads = 8;

/** ExperimentConfig's default error-mask seed: the reference seed. */
inline constexpr std::uint64_t kReferenceSeed = 0xacce55ULL;

/** Errors per with-error point of each grid. */
unsigned gridErrors(const std::string &grid);

/**
 * The named grid with every generated config seeded by @p seed:
 *
 *  paper_grid      8 kernels x {NoCkpt, Ckpt_E, Ckpt_NE, ReCkpt_E,
 *                  ReCkpt_NE}, 1 error in _E. With-error runs precede
 *                  their error-free sibling, which then resumes from
 *                  the sibling's error-free prefix (bench/perf order).
 *  recovery_sweep  8 kernels x {NoCkpt} + Ckpt x {log, replicated,
 *                  nvm} x {16 errors, 0 errors, 16 errors + 4 storage
 *                  faults}, all under global coordination.
 *  fig06           the fig06_time_overhead grid, in its order, at the
 *                  reference seed whatever @p seed is.
 *
 * fatal()s on an unknown name.
 */
std::vector<acr::harness::GridPoint> makeGrid(const std::string &grid,
                                              std::uint64_t seed);

/** Unique key of a point: workload, label, error and fault counts. */
std::string pointKey(const acr::harness::GridPoint &point);

/** "key,cycles,energy_pj,checkpoints,recoveries,ckpt_bytes_stored,
 *  ckpt_bytes_omitted,unrecoverable" — the simulated tuple, no host
 *  time. */
std::string tupleLine(const acr::harness::GridPoint &point,
                      const acr::harness::ExperimentResult &result);

} // namespace acrbench

#endif // ACRBENCH_GRIDS_HH
