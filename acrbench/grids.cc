#include "grids.hh"

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace acrbench
{

using acr::harness::BerMode;
using acr::harness::ExperimentConfig;
using acr::harness::GridPoint;

namespace
{

ExperimentConfig
config(BerMode mode, unsigned errors, std::uint64_t seed,
       acr::ckpt::Backend backend = acr::ckpt::Backend::kLog,
       unsigned storage_errors = 0)
{
    ExperimentConfig c;
    c.mode = mode;
    c.numErrors = errors;
    c.numCheckpoints = 25;
    c.sliceThreshold = 0;  // per-workload default (is: 5, else 10)
    c.backend = backend;
    c.storageErrors = storage_errors;
    c.seed = seed;
    return c;
}

} // namespace

unsigned
gridErrors(const std::string &grid)
{
    return grid == "recovery_sweep" ? 16 : 1;
}

std::vector<GridPoint>
makeGrid(const std::string &grid, std::uint64_t seed)
{
    std::vector<ExperimentConfig> configs;
    if (grid == "paper_grid") {
        configs = {config(BerMode::kNoCkpt, 0, seed),
                   config(BerMode::kCkpt, 1, seed),
                   config(BerMode::kCkpt, 0, seed),
                   config(BerMode::kReCkpt, 1, seed),
                   config(BerMode::kReCkpt, 0, seed)};
    } else if (grid == "recovery_sweep") {
        configs = {config(BerMode::kNoCkpt, 0, seed)};
        for (auto backend :
             {acr::ckpt::Backend::kLog, acr::ckpt::Backend::kReplicated,
              acr::ckpt::Backend::kNvm}) {
            configs.push_back(config(BerMode::kCkpt, 16, seed, backend));
            configs.push_back(config(BerMode::kCkpt, 0, seed, backend));
            configs.push_back(
                config(BerMode::kCkpt, 16, seed, backend, 4));
        }
    } else if (grid == "fig06") {
        configs = {config(BerMode::kNoCkpt, 0, kReferenceSeed),
                   config(BerMode::kCkpt, 0, kReferenceSeed),
                   config(BerMode::kCkpt, 1, kReferenceSeed),
                   config(BerMode::kReCkpt, 0, kReferenceSeed),
                   config(BerMode::kReCkpt, 1, kReferenceSeed)};
    } else {
        acr::fatal("unknown grid '%s' (want paper_grid, recovery_sweep "
                   "or fig06)",
                   grid.c_str());
    }

    std::vector<GridPoint> points;
    for (const auto &name : acr::workloads::allWorkloadNames())
        for (const auto &c : configs)
            points.push_back({name, c, kThreads});
    return points;
}

std::string
pointKey(const GridPoint &point)
{
    return acr::csprintf("%s,%s,e%u,s%u", point.workload.c_str(),
                         point.config.label().c_str(),
                         point.config.numErrors,
                         point.config.storageErrors);
}

std::string
tupleLine(const GridPoint &point,
          const acr::harness::ExperimentResult &result)
{
    return acr::csprintf(
        "%s,%llu,%.17g,%llu,%llu,%llu,%llu,%d", pointKey(point).c_str(),
        static_cast<unsigned long long>(result.cycles), result.energyPj,
        static_cast<unsigned long long>(result.checkpointsEstablished),
        static_cast<unsigned long long>(result.recoveries),
        static_cast<unsigned long long>(result.ckptBytesStored),
        static_cast<unsigned long long>(result.ckptBytesOmitted),
        result.unrecoverable ? 1 : 0);
}

} // namespace acrbench
