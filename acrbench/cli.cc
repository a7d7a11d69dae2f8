/**
 * @file
 * acrbench_cli: a benchMain bench over one of the benchmark's grids, so
 * the sweep fabric (--jobs, --forks/--journal, --listen/--connect,
 * --cache) runs the same points as the in-process pass.
 *
 * The grid and seed come from the environment (ACRBENCH_GRID,
 * ACRBENCH_SEED), not from flags: forked --worker children and
 * --connect workers inherit the environment, so every process of a
 * sweep enumerates the identical grid. stdout is one tupleLine() per
 * point, in grid order.
 */

#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/options.hh"
#include "grids.hh"
#include "harness/bench_main.hh"

namespace
{

std::string
requireEnv(const char *name)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        acr::fatal("acrbench_cli: %s is not set", name);
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string grid_name = requireEnv("ACRBENCH_GRID");
    unsigned long long seed = 0;
    if (!acr::parseStrictUint(requireEnv("ACRBENCH_SEED"), seed))
        acr::fatal("acrbench_cli: ACRBENCH_SEED is not an unsigned "
                   "integer");
    const auto grid = acrbench::makeGrid(grid_name, seed);

    acr::harness::BenchSpec spec;
    spec.name = "acrbench_" + grid_name;
    spec.grid = [&](acr::harness::BenchContext &) { return grid; };
    spec.render = [&](acr::harness::BenchContext &ctx,
                      const std::vector<acr::harness::ExperimentResult>
                          &results) {
        for (std::size_t i = 0; i < results.size(); ++i)
            ctx.out() << acrbench::tupleLine(grid[i], results[i]) << "\n";
    };
    return acr::harness::benchMain(argc, argv, spec);
}
