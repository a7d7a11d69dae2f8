#include "acr/slice_pass.hh"

#include "common/logging.hh"
#include "slice/engine.hh"
#include "slice/repository.hh"
#include "sim/system.hh"

namespace acr::amnesic
{

namespace
{

/** Pin-tool-style instrumentation callback. */
class PassObserver final : public cpu::ExecObserver
{
  public:
    PassObserver(slice::SliceEngine &slicer,
                 const slice::SlicePolicyConfig &policy,
                 std::size_t program_size)
        : slicer_(slicer), policy_(policy), hintedPcs_(program_size, 0)
    {
    }

    void
    onInstr(const cpu::InstrEvent &event) override
    {
        if (isa::isStore(event.inst->op)) {
            ++dynamicStores_;
            const slice::BuiltSlice *built =
                slicer_.buildForStore(event, policy_);
            if (built) {
                ++sliceableStores_;
                hintedPcs_[event.pc] = 1;
                repo_.intern(built->slice);
            }
            return;
        }
        slicer_.observe(event);
    }

    bool
    hinted(std::size_t pc) const
    {
        return hintedPcs_[pc] != 0;
    }
    const slice::SliceRepository &repo() const { return repo_; }
    std::uint64_t dynamicStores() const { return dynamicStores_; }
    std::uint64_t sliceableStores() const { return sliceableStores_; }

  private:
    slice::SliceEngine &slicer_;
    slice::SlicePolicyConfig policy_;
    /** Per-pc hint flags, indexed by static pc (dense, hot). */
    std::vector<std::uint8_t> hintedPcs_;
    slice::SliceRepository repo_;
    std::uint64_t dynamicStores_ = 0;
    std::uint64_t sliceableStores_ = 0;
};

} // namespace

SlicePassResult
SlicePass::run(const isa::Program &program,
               const sim::MachineConfig &machine,
               const slice::SlicePolicyConfig &policy)
{
    sim::MulticoreSystem system(machine, program);
    slice::SliceEngine slicer(machine.numCores, policy);
    PassObserver observer(slicer, policy, program.size());
    system.runToCompletionWith(&observer);

    SlicePassResult result;
    result.program = program;
    for (auto &inst : result.program.code()) {
        if (isa::isStore(inst.op)) {
            ++result.staticStores;
            if (observer.hinted(static_cast<std::size_t>(
                    &inst - result.program.code().data())))
            {
                inst.sliceHint = true;
                ++result.hintedStores;
            }
        }
    }

    result.uniqueSlices = observer.repo().uniqueSlices();
    result.sliceInstrs = observer.repo().totalInstrs();
    result.binaryGrowthPct =
        100.0 * static_cast<double>(result.sliceInstrs) /
        static_cast<double>(program.size());
    result.dynamicStores = observer.dynamicStores();
    result.sliceableStores = observer.sliceableStores();
    result.slicerWork = slicer.counters();
    result.totalProgress = system.progress();
    result.cycles = system.maxCycle();
    result.finalImage = system.memory().image();
    system.exportStats(result.stats);
    return result;
}

} // namespace acr::amnesic
