/**
 * @file
 * Component microbenchmarks (google-benchmark): host-side throughput of
 * the hot simulator paths — cache lookups, DRAM queue accounting,
 * functional memory, the dynamic slicer, slice replay as a function of
 * slice length, undo-log appends — plus the simulated-energy
 * recompute-vs-restore crossover that underpins Equation 4.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "ckpt/log.hh"
#include "energy/energy_model.hh"
#include "harness/sharded_sweep.hh"
#include "isa/builder.hh"
#include "mem/main_memory.hh"
#include "slice/engine.hh"
#include "slice/instance.hh"

namespace
{

using namespace acr;

void
BM_CacheAccess(benchmark::State &state)
{
    cache::CacheConfig config;
    config.sizeBytes = 32 * 1024;
    config.ways = 8;
    cache::Cache cache(config);
    Rng rng(1);
    std::vector<LineId> lines(4096);
    for (auto &line : lines)
        line = rng.below(2048);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(lines[i++ & 4095], (i & 3) == 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_DramQueueAccounting(benchmark::State &state)
{
    mem::DramModel dram(mem::DramConfig{});
    Cycle now = 0;
    LineId line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.lineWrite(line++, now));
        now += 10;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramQueueAccounting);

void
BM_MainMemoryWrite(benchmark::State &state)
{
    mem::MainMemory memory;
    Rng rng(2);
    std::vector<Addr> addrs(4096);
    for (auto &addr : addrs)
        addr = rng.below(1 << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.write(addrs[i++ & 4095], i));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MainMemoryWrite);

void
BM_CoreExecution(benchmark::State &state)
{
    isa::ProgramBuilder b("spin");
    b.movi(1, 0);
    b.movi(2, 1 << 30);
    b.label("loop");
    b.addi(1, 1, 1);
    b.muli(3, 1, 17);
    b.xori(3, 3, 99);
    b.bltu(1, 2, "loop");
    b.halt();
    auto program = b.build();
    mem::MainMemory memory;
    cache::CacheSystem caches(1, cache::HierarchyConfig{},
                              mem::DramConfig{});
    cpu::Core core(0, program, memory, caches, cpu::CoreTimingConfig{});
    for (auto _ : state)
        core.run(1000, nullptr);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoreExecution);

void
BM_SlicerTracking(benchmark::State &state)
{
    // Throughput of producer-chain tracking (the per-instruction cost
    // the ReCkpt configurations pay).
    isa::Instruction inst{isa::Opcode::kAddi, 1, 1, 0, 1, false};
    slice::SliceEngine engine(1);
    cpu::InstrEvent event;
    event.core = 0;
    event.inst = &inst;
    for (auto _ : state) {
        event.result += 1;
        engine.observe(event);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlicerTracking);

void
BM_SliceReplay(benchmark::State &state)
{
    const auto length = static_cast<std::uint32_t>(state.range(0));
    slice::StaticSlice shape;
    shape.numInputs = 1;
    shape.code.push_back({isa::Opcode::kAddi, 1, slice::inputSrc(0),
                          slice::kNoSrc});
    for (std::uint32_t i = 1; i < length; ++i) {
        shape.code.push_back({isa::Opcode::kMuli, 3,
                              static_cast<std::int32_t>(i - 1),
                              slice::kNoSrc});
    }
    slice::SliceRepository repo;
    slice::SliceId id = repo.intern(std::move(shape));
    slice::OperandBufferAccounting buf(16);
    auto instance = slice::SliceInstance::create(id, {42}, buf);

    for (auto _ : state)
        benchmark::DoNotOptimize(instance->replay(repo, nullptr));
    state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_SliceReplay)->Arg(5)->Arg(10)->Arg(20)->Arg(50);

void
BM_UndoLogAppend(benchmark::State &state)
{
    Addr addr = 0;
    ckpt::IntervalLog log(1);
    for (auto _ : state) {
        log.append({addr++, 7, 0, nullptr});
        if ((addr & 0xffff) == 0) {
            state.PauseTiming();
            log = ckpt::IntervalLog(1);
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UndoLogAppend);

/**
 * Equation 4's energy side: simulated energy of recomputing one value
 * (slice replay + operand reads + write-back) vs restoring it from a
 * checkpoint log in memory (word read + word write), as a function of
 * slice length. The counter reports the recompute/restore ratio —
 * below 1.0 recomputation wins; the crossover sits far above the
 * paper's threshold of 10.
 */
void
BM_RecomputeVsRestoreCrossover(benchmark::State &state)
{
    const double length = static_cast<double>(state.range(0));
    energy::EnergyConfig config;
    const double recompute = length * config.aluOpPj +
                             2 * config.operandBufferPj +
                             kWordBytes * config.dramBytePj;
    const double restore = 2 * kWordBytes * config.dramBytePj;
    for (auto _ : state)
        benchmark::DoNotOptimize(recompute / restore);
    state.counters["recompute_over_restore"] = recompute / restore;
}
BENCHMARK(BM_RecomputeVsRestoreCrossover)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(93)
    ->Arg(120);

/**
 * End-to-end throughput of the in-process ShardedSweep fan-out as a
 * function of the job count (the argument): a fixed 8-point grid over
 * a pre-warmed shared RunnerPool, so the measurement isolates
 * experiment execution plus pool overhead from one-time
 * program/slice-pass construction. On a
 * multi-core host, items/s should scale with the argument until it
 * reaches the core count.
 */
void
BM_SweepFanout(benchmark::State &state)
{
    static harness::RunnerPool pool;
    std::vector<harness::GridPoint> points;
    for (const char *name : {"is", "cg"}) {
        for (auto mode : {harness::BerMode::kNoCkpt,
                          harness::BerMode::kCkpt,
                          harness::BerMode::kReCkpt,
                          harness::BerMode::kReCkpt}) {
            harness::ExperimentConfig config;
            config.mode = mode;
            config.numCheckpoints = 10;
            config.sliceThreshold = 0;
            points.push_back({name, config, 4});
        }
    }
    harness::ShardedSweep sweep(pool,
                                static_cast<unsigned>(state.range(0)));
    sweep.run(points);  // warm every cache outside the timing loop
    for (auto _ : state)
        benchmark::DoNotOptimize(sweep.run(points));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_SweepFanout)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
