/**
 * @file
 * acrbench_inproc: the in-process half of the benchmark. run.py calls
 * it once per pass, so every pass gets a fresh process and a fresh
 * harness::Runner. Every measurement is taken here, from outside the
 * simulator: the program times its own calls into the public entry
 * points (Runner, sim::MulticoreSystem, slice::SliceEngine,
 * cache::CacheSystem) and changes nothing under src/.
 *
 *   acrbench_inproc info
 *       build facts for run.py's build guard (one JSON line).
 *   acrbench_inproc pass --grid=G --seed=N [--workers=W] [--skip=i,j]
 *                        [--trace]
 *       set-up (baseProgram + profile per kernel), then every grid
 *       point through Runner::run on W closed-loop worker threads.
 *       Streams a "grid" line (the grid's size), a "start" and a
 *       "point" line per point, then one "pass" line; with --trace, a
 *       final "spans" line.
 *   acrbench_inproc layers --grid=G --seed=N
 *       the traced run's differential probes per kernel: a bare
 *       MulticoreSystem run, the same run feeding a SliceEngine, a
 *       replay of its recorded data accesses into a fresh CacheSystem,
 *       and prefix-sharing-off Ckpt/ReCkpt runs per backend. One
 *       "layers" line, then a "spans" line.
 *
 * Output is JSON lines on stdout; stdout is flushed after each line so
 * a point that aborts the process loses only itself (run.py restarts
 * the pass with the finished points skipped).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "ckpt/store.hh"
#include "common/logging.hh"
#include "common/options.hh"
#include "common/serde.hh"
#include "cpu/exec_observer.hh"
#include "grids.hh"
#include "harness/runner.hh"
#include "isa/opcode.hh"
#include "sim/system.hh"
#include "slice/engine.hh"

namespace
{

using namespace acr;
using acr::serde::Json;
using Clock = std::chrono::steady_clock;

/** One timed call into a layer. parent/point are -1 when absent. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    long point = -1;
};

/**
 * In-memory span recorder; prints everything once, at exit. When off,
 * time() still measures (point latencies are end-to-end metrics) but
 * records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    /** Run @p body as a span under @p parent (-1: none, as for calls
     *  on worker threads); returns its duration in seconds. */
    template <class Body>
    double
    time(const std::string &name, long point, int parent, Body &&body)
    {
        const double start = now();
        body();
        const double end = now();
        if (on_) {
            std::lock_guard<std::mutex> lock(mutex_);
            spans_.push_back({name, start, end, parent, point});
        }
        return end - start;
    }

    /** Open a span that encloses others; close it with close(). */
    int
    open(const std::string &name, int parent = -1)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, now(), 0.0, parent, -1});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now();
    }

    Json
    toJson() const
    {
        Json list = Json::array();
        for (const Span &s : spans_) {
            Json span = Json::array();
            span.push(s.name);
            span.push(s.start);
            span.push(s.end);
            span.push(static_cast<std::int64_t>(s.parent));
            span.push(static_cast<std::int64_t>(s.point));
            list.push(std::move(span));
        }
        Json doc = Json::object();
        doc.set("kind", "spans");
        doc.set("spans", std::move(list));
        return doc;
    }

  private:
    bool on_;
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

std::mutex outMutex;

void
emit(const Json &doc)
{
    std::ostringstream line;
    doc.write(line);
    std::lock_guard<std::mutex> lock(outMutex);
    std::cout << line.str() << "\n" << std::flush;
}

std::set<std::size_t>
parseSkip(const std::string &text)
{
    std::set<std::size_t> skip;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        unsigned long long index = 0;
        if (!parseStrictUint(item, index))
            fatal("--skip: '%s' is not an index", item.c_str());
        skip.insert(static_cast<std::size_t>(index));
    }
    return skip;
}

std::vector<std::string>
kernelsOf(const std::vector<harness::GridPoint> &grid)
{
    std::vector<std::string> kernels;
    for (const auto &point : grid)
        if (kernels.empty() || kernels.back() != point.workload)
            kernels.push_back(point.workload);
    return kernels;
}

int
cmdInfo()
{
    Json doc = Json::object();
    doc.set("kind", "info");
    doc.set("build_type", ACRBENCH_BUILD_TYPE);
    doc.set("cxx_flags", ACRBENCH_CXX_FLAGS);
    doc.set("compiler", ACRBENCH_COMPILER);
#ifdef NDEBUG
    doc.set("ndebug", true);
#else
    doc.set("ndebug", false);
#endif
    bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    sanitized = true;
#endif
#endif
    doc.set("sanitized", sanitized);
    emit(doc);
    return 0;
}

int
cmdPass(const std::string &grid_name, std::uint64_t seed,
        unsigned workers, const std::set<std::size_t> &skip, bool trace)
{
    Tracer tracer(trace);
    const auto grid = acrbench::makeGrid(grid_name, seed);
    Json size = Json::object();
    size.set("kind", "grid");
    size.set("size", static_cast<std::uint64_t>(grid.size()));
    emit(size);
    const int pass_span = tracer.open("pass");

    harness::Runner runner(acrbench::kThreads);
    double setup_s = 0.0;
    const int setup_span = tracer.open("setup", pass_span);
    for (const auto &kernel : kernelsOf(grid)) {
        setup_s += tracer.time("workloads.baseProgram", -1, setup_span,
                               [&] { runner.baseProgram(kernel); });
        setup_s += tracer.time("acr.profile", -1, setup_span,
                               [&] { runner.profile(kernel); });
    }
    tracer.close(setup_span);

    std::atomic<std::size_t> next{0};
    const double grid_start = tracer.now();
    auto worker = [&] {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= grid.size())
                return;
            if (skip.count(i))
                continue;
            const auto &point = grid[i];
            Json start = Json::object();
            start.set("kind", "start");
            start.set("index", static_cast<std::uint64_t>(i));
            emit(start);

            harness::ExperimentResult result;
            const double seconds = tracer.time(
                "harness.Runner::run", static_cast<long>(i),
                workers == 1 ? pass_span : -1,
                [&] { result = runner.run(point.workload, point.config); });

            Json stats = Json::object();
            for (const auto &[name, value] : result.stats.all())
                stats.set(name, value);
            stats.set("recoveries",
                      static_cast<std::uint64_t>(result.recoveries));
            Json doc = Json::object();
            doc.set("kind", "point");
            doc.set("index", static_cast<std::uint64_t>(i));
            doc.set("tuple", acrbench::tupleLine(point, result));
            doc.set("ms", seconds * 1e3);
            doc.set("stats", std::move(stats));
            emit(doc);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(worker);
    worker();
    for (auto &thread : threads)
        thread.join();
    const double grid_wall_s = tracer.now() - grid_start;
    tracer.close(pass_span);

    Json doc = Json::object();
    doc.set("kind", "pass");
    doc.set("setup_s", setup_s);
    doc.set("grid_wall_s", grid_wall_s);
    doc.set("prefix_resumes", runner.prefixResumes());
    doc.set("slice_pass_runs", runner.slicePassRuns());
    emit(doc);
    if (trace)
        emit(tracer.toJson());
    return 0;
}

/** Bare-run observer that feeds the slicer exactly as the slice pass
 *  does: observe() for every instruction, buildForStore() for stores. */
class SliceFeed final : public cpu::ExecObserver
{
  public:
    SliceFeed(slice::SliceEngine &slicer, slice::SlicePolicyConfig policy)
        : slicer_(slicer), policy_(policy)
    {
    }

    void
    onInstr(const cpu::InstrEvent &event) override
    {
        if (isa::isStore(event.inst->op)) {
            slicer_.buildForStore(event, policy_);
            return;
        }
        slicer_.observe(event);
    }

  private:
    slice::SliceEngine &slicer_;
    slice::SlicePolicyConfig policy_;
};

/** One data access of the recorded stream. */
struct Access
{
    Addr addr;
    CoreId core;
    bool write;
};

class AccessRecorder final : public cpu::ExecObserver
{
  public:
    void
    onInstr(const cpu::InstrEvent &event) override
    {
        if (isa::isLoad(event.inst->op) || isa::isStore(event.inst->op))
            accesses.push_back(
                {event.addr, event.core, isa::isStore(event.inst->op)});
    }

    std::vector<Access> accesses;
};

int
cmdLayers(const std::string &grid_name, std::uint64_t seed)
{
    Tracer tracer(true);
    const auto grid = acrbench::makeGrid(grid_name, seed);
    const unsigned errors = acrbench::gridErrors(grid_name);
    const int layers_span = tracer.open("layers");

    harness::Runner runner(acrbench::kThreads);
    runner.setPrefixShare(false);
    const auto &machine = runner.machine();

    double bare_s = 0.0, observe_s = 0.0, replay_s = 0.0;
    std::uint64_t instrs = 0, accesses = 0;
    std::map<std::string, double> runs;
    for (const auto &kernel : kernelsOf(grid)) {
        const isa::Program &program = runner.baseProgram(kernel);
        runner.profile(kernel);

        double bare = 0.0;
        {
            sim::MulticoreSystem system(machine, program);
            bare = tracer.time("cpu.bare_run", -1, layers_span,
                               [&] { system.runToCompletion(); });
            instrs += system.progress();
        }
        bare_s += bare;

        {
            sim::MulticoreSystem system(machine, program);
            slice::SliceEngine slicer(machine.numCores);
            slice::SlicePolicyConfig policy;
            policy.lengthThreshold =
                harness::Runner::defaultThreshold(kernel);
            SliceFeed feed(slicer, policy);
            observe_s += tracer.time(
                "slice.observed_run", -1, layers_span,
                [&] { system.runToCompletionWith(&feed); });
        }

        {
            sim::MulticoreSystem system(machine, program);
            AccessRecorder recorder;
            system.runToCompletionWith(&recorder);
            cache::CacheSystem caches(machine.numCores, machine.hierarchy,
                                      machine.dram);
            std::vector<Cycle> now(machine.numCores, 0);
            replay_s += tracer.time("cache.replay", -1, layers_span, [&] {
                for (const Access &a : recorder.accesses)
                    now[a.core] =
                        caches.dataAccess(a.core, a.addr, a.write,
                                          now[a.core]);
            });
            accesses += recorder.accesses.size();
        }

        auto timed_run = [&](const std::string &key,
                             harness::ExperimentConfig config) {
            config.seed = grid.front().config.seed;
            config.sliceThreshold = 0;
            const double seconds = tracer.time(
                "harness.Runner::run " + key, -1, layers_span,
                [&] { runner.run(kernel, config); });
            runs[key] += seconds;
            return seconds;
        };
        double ckpt_ne_log = 0.0, ckpt_e1_log = 0.0;
        for (auto backend :
             {ckpt::Backend::kLog, ckpt::Backend::kReplicated,
              ckpt::Backend::kNvm}) {
            const std::string name = ckpt::backendName(backend);
            harness::ExperimentConfig config;
            config.mode = harness::BerMode::kCkpt;
            config.backend = backend;
            const double ne = timed_run("ckpt_ne." + name, config);
            config.numErrors = errors;
            const double e = timed_run("ckpt_e." + name, config);
            runs["establish." + name] += ne - bare;
            runs["recovery." + name] += e - ne;
            if (backend == ckpt::Backend::kLog) {
                ckpt_ne_log = ne;
                if (errors == 1)
                    ckpt_e1_log = e;
            }
        }
        // ReCkpt's extra cost is paired against Ckpt at one error on
        // every grid; grids with more errors time that Ckpt run here.
        harness::ExperimentConfig config;
        config.mode = harness::BerMode::kCkpt;
        config.numErrors = 1;
        if (errors != 1)
            ckpt_e1_log = timed_run("ckpt_e1.log", config);
        config.mode = harness::BerMode::kReCkpt;
        const double reckpt_e = timed_run("reckpt_e1", config);
        config.numErrors = 0;
        const double reckpt_ne = timed_run("reckpt_ne", config);
        runs["reckpt_extra"] +=
            (reckpt_ne - ckpt_ne_log) + (reckpt_e - ckpt_e1_log);
    }
    tracer.close(layers_span);

    Json doc = Json::object();
    doc.set("kind", "layers");
    doc.set("bare_s", bare_s);
    doc.set("observe_s", observe_s);
    doc.set("replay_s", replay_s);
    doc.set("instrs", instrs);
    doc.set("accesses", accesses);
    for (const auto &[key, seconds] : runs)
        doc.set(key, seconds);
    emit(doc);
    emit(tracer.toJson());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: acrbench_inproc info | pass | layers [options]");
    const std::string command = argv[1];
    if (command == "info")
        return cmdInfo();

    OptionParser options("acrbench_inproc " + command);
    options.addString("grid", "paper_grid",
                      "paper_grid | recovery_sweep | fig06");
    options.addUint("seed", acrbench::kReferenceSeed,
                    "error-mask seed of every generated config");
    options.addUint("workers", 1, "closed-loop worker threads (pass)");
    options.addString("skip", "", "grid indices to skip (pass)");
    options.addFlag("trace", "record spans (pass)");
    options.parse(argc - 1, argv + 1);

    const std::string grid = options.getString("grid");
    const std::uint64_t seed = options.getUint("seed");
    if (command == "pass") {
        const auto workers =
            static_cast<unsigned>(options.getUint("workers"));
        if (workers < 1)
            fatal("--workers must be >= 1");
        return cmdPass(grid, seed, workers,
                       parseSkip(options.getString("skip")),
                       options.getFlag("trace"));
    }
    if (command == "layers")
        return cmdLayers(grid, seed);
    fatal("unknown command '%s'", command.c_str());
}
