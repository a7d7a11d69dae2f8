/**
 * @file
 * Tests for the recomputation substrate: static slice representation,
 * repository dedup, instance/operand-buffer accounting, the dynamic
 * backward slicer, the property that replaying a captured Slice
 * reproduces the stored value bit-for-bit for randomized programs, and
 * the differential check that a depth-capped slicer builds exactly what
 * the uncapped one does, and that a value-liveness tracked slicer
 * builds exactly what the untracked one does at every root store.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "acr/slice_pass.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "harness/runner.hh"
#include "isa/builder.hh"
#include "mem/main_memory.hh"
#include "sim/system.hh"
#include "slice/engine.hh"
#include "slice/instance.hh"
#include "slice/policy.hh"
#include "slice/repository.hh"
#include "workloads/workload.hh"

namespace acr::slice
{
namespace
{

using isa::Opcode;

// ---------------------------------------------------------------------
// Static slices and the repository
// ---------------------------------------------------------------------

StaticSlice
addChain()
{
    // v = (in0 + 5) * in1
    StaticSlice s;
    s.code.push_back({Opcode::kAddi, 5, inputSrc(0), kNoSrc});
    s.code.push_back({Opcode::kMul, 0, 0, inputSrc(1)});
    s.numInputs = 2;
    return s;
}

TEST(StaticSlice, SourceEncodingRoundTrips)
{
    EXPECT_TRUE(isInputSrc(inputSrc(0)));
    EXPECT_TRUE(isInputSrc(inputSrc(7)));
    EXPECT_FALSE(isInputSrc(0));
    EXPECT_FALSE(isInputSrc(kNoSrc));
    EXPECT_EQ(inputIndexOf(inputSrc(3)), 3u);
}

TEST(Repository, InternDeduplicatesIdenticalShapes)
{
    SliceRepository repo;
    SliceId a = repo.intern(addChain());
    SliceId b = repo.intern(addChain());
    EXPECT_EQ(a, b);
    EXPECT_EQ(repo.uniqueSlices(), 1u);
    EXPECT_EQ(repo.totalInstrs(), 2u);

    StaticSlice other = addChain();
    other.code[0].imm = 6;
    SliceId c = repo.intern(other);
    EXPECT_NE(a, c);
    EXPECT_EQ(repo.uniqueSlices(), 2u);
}

TEST(Repository, GetReturnsTheCanonicalSlice)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    EXPECT_EQ(repo.get(id).code.size(), 2u);
    repo.clear();
    EXPECT_EQ(repo.uniqueSlices(), 0u);
}

// ---------------------------------------------------------------------
// Instances and operand-buffer accounting
// ---------------------------------------------------------------------

TEST(OperandBuffer, EnforcesCapacity)
{
    OperandBufferAccounting buf(4);
    EXPECT_TRUE(buf.tryReserve(3));
    EXPECT_FALSE(buf.tryReserve(2));
    EXPECT_EQ(buf.rejections(), 1u);
    EXPECT_TRUE(buf.tryReserve(1));
    buf.release(4);
    EXPECT_EQ(buf.liveWords(), 0u);
    EXPECT_EQ(buf.peakWords(), 4u);
}

TEST(Instance, LifetimeReturnsBufferSpace)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    OperandBufferAccounting buf(8);
    {
        auto inst = SliceInstance::create(id, {2, 3}, buf);
        ASSERT_NE(inst, nullptr);
        EXPECT_EQ(buf.liveWords(), 2u);
    }
    EXPECT_EQ(buf.liveWords(), 0u);
}

TEST(Instance, CreateFailsWhenBufferFull)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    OperandBufferAccounting buf(1);
    EXPECT_EQ(SliceInstance::create(id, {2, 3}, buf), nullptr);
    EXPECT_EQ(buf.liveWords(), 0u);
}

TEST(Instance, ReplayEvaluatesTheSlice)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    OperandBufferAccounting buf(8);
    auto inst = SliceInstance::create(id, {10, 3}, buf);
    ReplayCost cost;
    EXPECT_EQ(inst->replay(repo, &cost), (10u + 5u) * 3u);
    EXPECT_EQ(cost.aluOps, 2u);
    EXPECT_EQ(cost.operandReads, 2u);
}

// ---------------------------------------------------------------------
// Selection policy
// ---------------------------------------------------------------------

TEST(Policy, GreedyThresholdCapsLength)
{
    SlicePolicyConfig policy;
    policy.lengthThreshold = 10;
    EXPECT_TRUE(policy.accepts(10, 2));
    EXPECT_FALSE(policy.accepts(11, 2));
    EXPECT_FALSE(policy.accepts(0, 1)) << "a pure copy is not a Slice";
    EXPECT_EQ(policy.buildCap(), 10u);
}

TEST(Policy, InputCapApplies)
{
    SlicePolicyConfig policy;
    policy.maxInputs = 4;
    EXPECT_FALSE(policy.accepts(3, 5));
}

TEST(Policy, CostModelAcceptsWhenRecomputeIsCheaper)
{
    SlicePolicyConfig policy;
    policy.policy = SelectionPolicy::kCostModel;
    // Long but cheap chains pass the cost model even beyond 10.
    EXPECT_TRUE(policy.accepts(40, 4));
    EXPECT_EQ(policy.buildCap(), policy.costModelMaxLen);
    // An absurdly expensive slice fails.
    policy.aluCost = 1e9;
    EXPECT_FALSE(policy.accepts(40, 4));
}

// ---------------------------------------------------------------------
// The dynamic slicer on real executions
// ---------------------------------------------------------------------

struct SliceRig
{
    explicit SliceRig(isa::Program prog)
        : program(std::move(prog)),
          caches(1, cache::HierarchyConfig{}, mem::DramConfig{}),
          core(0, program, memory, caches, cpu::CoreTimingConfig{}),
          engine(1)
    {
        for (const auto &[addr, value] : program.data().words)
            memory.write(addr, value);
    }

    isa::Program program;  // owned: Core keeps a reference into it

    /** Run to halt, building a slice at each store. */
    std::vector<std::optional<BuiltSlice>>
    run(const SlicePolicyConfig &policy)
    {
        struct Observer : cpu::ExecObserver
        {
            SliceRig *rig;
            const SlicePolicyConfig *policy;
            std::vector<std::optional<BuiltSlice>> built;
            void
            onInstr(const cpu::InstrEvent &e) override
            {
                if (isa::isStore(e.inst->op)) {
                    const BuiltSlice *b =
                        rig->engine.buildForStore(e, *policy);
                    built.push_back(b ? std::optional<BuiltSlice>(*b)
                                      : std::nullopt);
                    return;
                }
                rig->engine.observe(e);
            }
        } observer;
        observer.rig = this;
        observer.policy = &policy;
        core.run(1u << 22, &observer);
        return std::move(observer.built);
    }

    mem::MainMemory memory;
    cache::CacheSystem caches;
    cpu::Core core;
    SliceEngine engine;
};

TEST(Engine, ArithmeticChainYieldsExactLengthSlice)
{
    isa::ProgramBuilder b("chain");
    b.movi(1, 7);      // arith producer (part of the slice)
    b.addi(1, 1, 3);
    b.muli(1, 1, 5);
    b.movi(2, 100);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run(SlicePolicyConfig{});
    ASSERT_EQ(built.size(), 1u);
    ASSERT_TRUE(built[0].has_value());
    EXPECT_EQ(built[0]->slice.length(), 3u);  // movi, addi, muli
    EXPECT_EQ(built[0]->slice.numInputs, 0u);
    EXPECT_EQ(built[0]->value, (7u + 3u) * 5u);
}

TEST(Engine, LoadsBecomeCapturedInputs)
{
    isa::ProgramBuilder b("loads");
    b.data(50, 11);
    b.movi(1, 50);
    b.load(2, 1);     // leaf: captured value 11
    b.addi(2, 2, 1);  // slice instr
    b.store(1, 2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run(SlicePolicyConfig{});
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 1u);
    ASSERT_EQ(built[0]->inputs.size(), 1u);
    EXPECT_EQ(built[0]->inputs[0], 11u);
    EXPECT_EQ(built[0]->value, 12u);
}

TEST(Engine, StoredLoadHasNoSlice)
{
    isa::ProgramBuilder b("copy");
    b.data(50, 11);
    b.movi(1, 50);
    b.load(2, 1);
    b.store(1, 2, 1);  // pure copy: backward slice contains the load
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run(SlicePolicyConfig{});
    EXPECT_FALSE(built.at(0).has_value());
}

TEST(Engine, TidIsCapturedNotReplayed)
{
    isa::ProgramBuilder b("tid");
    b.tid(1);
    b.addi(1, 1, 100);
    b.movi(2, 60);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run(SlicePolicyConfig{});
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 1u);
    ASSERT_EQ(built[0]->inputs.size(), 1u);
    EXPECT_EQ(built[0]->inputs[0], 0u) << "core 0's tid";
}

TEST(Engine, ThresholdRejectsLongChains)
{
    isa::ProgramBuilder b("long");
    b.movi(1, 1);
    for (int i = 0; i < 15; ++i)
        b.addi(1, 1, 1);
    b.movi(2, 70);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());

    SlicePolicyConfig strict;
    strict.lengthThreshold = 10;
    EXPECT_FALSE(rig.run(strict).at(0).has_value());

    SliceRig rig2(b.build());
    SlicePolicyConfig loose;
    loose.lengthThreshold = 20;
    auto built = rig2.run(loose);
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 16u);
}

TEST(Engine, SharedSubexpressionsCountOnce)
{
    // t = 3 + 4; v = t * t: the DAG has 3 arith nodes, not 4.
    isa::ProgramBuilder b("dag");
    b.movi(1, 3);
    b.addi(1, 1, 4);
    b.mul(2, 1, 1);
    b.movi(3, 80);
    b.store(3, 2);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run(SlicePolicyConfig{});
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 3u);
}

TEST(Engine, SliceNeverContainsMemoryOrControlOps)
{
    isa::ProgramBuilder b("pure");
    b.data(90, 5);
    b.movi(1, 90);
    b.load(2, 1);
    b.addi(2, 2, 1);
    b.mul(2, 2, 2);
    b.store(1, 2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run(SlicePolicyConfig{});
    ASSERT_TRUE(built.at(0).has_value());
    for (const SliceInstr &si : built[0]->slice.code)
        EXPECT_TRUE(isSliceable(si.op))
            << "slice contains " << opcodeName(si.op);
}

TEST(Engine, ResetCoreMakesRegistersOpaque)
{
    isa::ProgramBuilder b("reset");
    b.movi(1, 7);
    b.addi(1, 1, 1);
    b.movi(2, 95);
    b.store(2, 1);
    b.store(2, 1, 1);
    b.halt();
    SliceRig rig(b.build());

    struct Observer : cpu::ExecObserver
    {
        SliceRig *rig;
        SlicePolicyConfig policy;
        int stores = 0;
        std::optional<BuiltSlice> first, second;
        void
        onInstr(const cpu::InstrEvent &e) override
        {
            if (isa::isStore(e.inst->op)) {
                const auto *built = rig->engine.buildForStore(e, policy);
                if (stores++ == 0) {
                    if (built)
                        first = *built;
                    // Simulate a rollback between the stores.
                    std::array<Word, isa::kNumRegs> regs{};
                    for (unsigned r = 0; r < isa::kNumRegs; ++r)
                        regs[r] = rig->core.reg(r);
                    rig->engine.resetCore(0, regs);
                } else {
                    if (built)
                        second = *built;
                }
                return;
            }
            rig->engine.observe(e);
        }
    } observer;
    observer.rig = &rig;
    rig.core.run(1000, &observer);

    EXPECT_TRUE(observer.first.has_value());
    EXPECT_FALSE(observer.second.has_value())
        << "after reset the value's producer is opaque";
}

/**
 * Random arithmetic program over r1..r8 with loads and stores: a
 * straight-line block, then a counted loop around a second block whose
 * producer chains grow far past the thresholds under test.
 */
isa::Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    isa::ProgramBuilder b("random");

    // Seed some registers and data.
    for (unsigned r = 1; r <= 8; ++r)
        b.movi(static_cast<isa::Reg>(r),
               static_cast<SWord>(rng.next() & 0xffff));
    for (Addr a = 0; a < 16; ++a)
        b.data(200 + a, rng.next());
    b.movi(20, 200);

    unsigned stores = 0;
    auto block = [&](int length) {
        for (int i = 0; i < length; ++i) {
            unsigned pick = static_cast<unsigned>(rng.below(10));
            isa::Reg rd = static_cast<isa::Reg>(1 + rng.below(8));
            isa::Reg rs1 = static_cast<isa::Reg>(1 + rng.below(8));
            isa::Reg rs2 = static_cast<isa::Reg>(1 + rng.below(8));
            switch (pick) {
              case 0: b.add(rd, rs1, rs2); break;
              case 1: b.sub(rd, rs1, rs2); break;
              case 2: b.mul(rd, rs1, rs2); break;
              case 3: b.xor_(rd, rs1, rs2); break;
              case 4: b.and_(rd, rs1, rs2); break;
              case 5: b.or_(rd, rs1, rs2); break;
              case 6:
                b.addi(rd, rs1, static_cast<SWord>(rng.below(1000)));
                break;
              case 7:
                b.shri(rd, rs1, static_cast<SWord>(rng.below(63)));
                break;
              case 8:
                b.load(rd, 20, static_cast<SWord>(rng.below(16)));
                break;
              default:
                b.store(20, rs2, static_cast<SWord>(16 + stores));
                ++stores;
                break;
            }
        }
    };
    block(200);
    b.movi(9, 24);  // loop counter
    b.movi(10, 0);
    b.label("loop");
    block(40);
    b.addi(9, 9, -1);
    b.bne(9, 10, "loop");
    b.store(20, 1, 99);
    b.halt();
    return b.build();
}

/**
 * Property: for random arithmetic programs, every built slice replays
 * to exactly the stored value.
 */
class SliceReplayProperty : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SliceReplayProperty, ReplayMatchesStoredValue)
{
    SliceRig rig(randomProgram(GetParam()));
    SlicePolicyConfig policy;
    policy.lengthThreshold = 64;
    policy.maxInputs = 64;
    auto built = rig.run(policy);

    unsigned replayed = 0;
    SliceRepository repo;
    OperandBufferAccounting buf(1u << 20);
    for (const auto &maybe : built) {
        if (!maybe)
            continue;
        SliceId id = repo.intern(maybe->slice);
        auto inst = SliceInstance::create(id, maybe->inputs, buf);
        ASSERT_NE(inst, nullptr);
        EXPECT_EQ(inst->replay(repo, nullptr), maybe->value);
        ++replayed;
    }
    EXPECT_GT(replayed, 0u) << "degenerate program: nothing sliceable";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceReplayProperty,
                         testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Depth cap: a capped engine builds exactly what an uncapped one does
// ---------------------------------------------------------------------

bool
sameBuild(const BuiltSlice *want, const BuiltSlice *got)
{
    if (want == nullptr || got == nullptr)
        return want == got;
    return want->slice.code == got->slice.code &&
           want->slice.numInputs == got->slice.numInputs &&
           want->inputs == got->inputs && want->value == got->value;
}

/**
 * Feeds one execution, as the slice pass does, to an uncapped,
 * untracked reference engine and to one depth-capped engine per policy
 * and root choice, built from the program (policy-major: engine
 * i * roots + j has policy i and root choice j). At every store each
 * capped engine whose root it is must build what the reference builds
 * under the same policy; hinted-root engines build only at hinted
 * stores, as a ReCkpt run's AcrEngine does.
 */
class DifferentialFeed final : public cpu::ExecObserver
{
  public:
    DifferentialFeed(unsigned cores, const isa::Program &program,
                     std::vector<SlicePolicyConfig> policies,
                     std::vector<SliceRoots> roots = {SliceRoots::kAllStores})
        : policies_(std::move(policies)), roots_(std::move(roots)),
          reference_(cores)
    {
        capped_.reserve(policies_.size() * roots_.size());
        for (const SlicePolicyConfig &policy : policies_)
            for (SliceRoots root : roots_)
                capped_.emplace_back(cores, policy, program, root);
    }

    void
    onInstr(const cpu::InstrEvent &event) override
    {
        if (!isa::isStore(event.inst->op)) {
            reference_.observe(event);
            for (SliceEngine &engine : capped_)
                engine.observe(event);
            return;
        }
        for (std::size_t i = 0; i < policies_.size(); ++i) {
            const BuiltSlice *want =
                reference_.buildForStore(event, policies_[i]);
            if (want)
                ++admissible;
            for (std::size_t j = 0; j < roots_.size(); ++j) {
                if (roots_[j] == SliceRoots::kHintedStores &&
                    !event.inst->sliceHint)
                    continue;
                const BuiltSlice *got =
                    capped_[i * roots_.size() + j].buildForStore(
                        event, policies_[i]);
                ++compared;
                if (!sameBuild(want, got) && mismatches++ == 0)
                    firstMismatch = "store " + std::to_string(stores) +
                                    " at pc " + std::to_string(event.pc) +
                                    " under policy " + std::to_string(i) +
                                    ", roots " + std::to_string(j);
            }
        }
        if (afterStore)
            afterStore(stores);
        ++stores;
    }

    void
    resetCore(CoreId core, const std::array<Word, isa::kNumRegs> &regs)
    {
        reference_.resetCore(core, regs);
        for (SliceEngine &engine : capped_)
            engine.resetCore(core, regs);
    }

    const SliceEngine &reference() const { return reference_; }
    const SliceEngine &capped(std::size_t i) const { return capped_[i]; }

    /** Called after each store's check with its 0-based index. */
    std::function<void(std::uint64_t)> afterStore;

    std::uint64_t stores = 0;
    std::uint64_t admissible = 0;
    /** Capped builds checked against the reference. */
    std::uint64_t compared = 0;
    std::uint64_t mismatches = 0;
    std::string firstMismatch;

  private:
    std::vector<SlicePolicyConfig> policies_;
    std::vector<SliceRoots> roots_;
    SliceEngine reference_;
    std::vector<SliceEngine> capped_;
};

SlicePolicyConfig
greedy(unsigned threshold, unsigned max_inputs = 64)
{
    SlicePolicyConfig policy;
    policy.lengthThreshold = threshold;
    policy.maxInputs = max_inputs;
    return policy;
}

SlicePolicyConfig
costModel()
{
    SlicePolicyConfig policy;
    policy.policy = SelectionPolicy::kCostModel;
    return policy;
}

class DepthCapDifferential : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DepthCapDifferential, RandomProgramsBuildIdentically)
{
    SliceRig rig(randomProgram(GetParam()));
    DifferentialFeed feed(1, rig.program,
                          {greedy(3), greedy(10), greedy(10, 2), greedy(64),
                           costModel()});
    // A rollback mid-run: every register becomes an opaque leaf.
    feed.afterStore = [&](std::uint64_t store) {
        if (store != 10)
            return;
        std::array<Word, isa::kNumRegs> regs{};
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            regs[r] = rig.core.reg(r);
        feed.resetCore(0, regs);
    };
    rig.core.run(1u << 22, &feed);

    EXPECT_GT(feed.stores, 10u) << "the reset never ran";
    EXPECT_GT(feed.admissible, 0u) << "degenerate program";
    EXPECT_GT(feed.capped(0).counters().deepResults, 0u)
        << "the loop never outgrew the threshold-3 depth cap";
    EXPECT_EQ(feed.mismatches, 0u) << "first: " << feed.firstMismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepthCapDifferential,
                         testing::Range<std::uint64_t>(1, 21));

TEST(DepthCap, SquaringChainIsShallowDespiteItsApproxSize)
{
    // Each mul reads r1 twice, so approxSize doubles (1, 3, 7, ...,
    // 127) while the longest path grows by one: the Slice is the 7
    // distinct instructions. Pruning by approxSize would lose it.
    isa::ProgramBuilder b("square");
    b.movi(1, 3);
    for (int i = 0; i < 6; ++i)
        b.mul(1, 1, 1);
    b.movi(2, 100);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());

    const SlicePolicyConfig policy = greedy(10);
    rig.engine = SliceEngine(1, policy, rig.program, SliceRoots::kAllStores);
    auto built = rig.run(policy);

    ASSERT_EQ(built.size(), 1u);
    ASSERT_TRUE(built[0].has_value());
    EXPECT_EQ(built[0]->slice.length(), 7u);
    EXPECT_EQ(built[0]->slice.numInputs, 0u);
    Word want = 3;
    for (int i = 0; i < 6; ++i)
        want *= want;
    EXPECT_EQ(built[0]->value, want);
    EXPECT_EQ(rig.engine.counters().deepResults, 0u);
}

TEST(DepthCap, DeepStoreIsAnsweredWithoutAWalk)
{
    // 16 chained addi: from the 11th on, results are deeper than the
    // threshold-10 cap and get no node.
    isa::ProgramBuilder b("deep");
    b.movi(1, 1);
    for (int i = 0; i < 15; ++i)
        b.addi(1, 1, 1);
    b.movi(2, 70);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());
    DifferentialFeed feed(1, rig.program, {greedy(10)});
    rig.core.run(1000, &feed);

    EXPECT_EQ(feed.mismatches, 0u) << feed.firstMismatch;
    EXPECT_EQ(feed.admissible, 0u);
    const SliceEngine::Counters &work = feed.capped(0).counters();
    EXPECT_EQ(work.deepResults, 6u);
    EXPECT_EQ(work.builds, 1u);
    EXPECT_EQ(work.walklessBuilds, 1u);
    EXPECT_EQ(feed.reference().counters().deepResults, 0u);
    EXPECT_EQ(feed.reference().counters().walklessBuilds, 0u);
}

TEST(DepthCap, CappedEngineRefusesALongerPolicy)
{
    isa::ProgramBuilder b("chain");
    b.movi(1, 7);
    b.movi(2, 100);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());
    rig.engine =
        SliceEngine(1, greedy(10), rig.program, SliceRoots::kAllStores);
    EXPECT_DEATH(rig.run(greedy(11)), "deeper than 10");
}

// ---------------------------------------------------------------------
// Value liveness: a tracked engine skips results no root store can
// read and still builds exactly what the untracked one does
// ---------------------------------------------------------------------

/**
 * Random program with data-dependent control flow: if/else diamonds
 * branching on a value's low bit, inside and outside a counted loop.
 * The arms compute over r1..r8 and store them; a random subset of the
 * stores carries the slice hint. Scratch registers r11..r14 feed only
 * branches and each other, so no store ever reads them.
 */
isa::Program
branchyProgram(std::uint64_t seed)
{
    Rng rng(seed);
    isa::ProgramBuilder b("branchy");
    auto pool = [&] { return static_cast<isa::Reg>(1 + rng.below(8)); };
    auto scratch = [&] { return static_cast<isa::Reg>(11 + rng.below(3)); };

    for (unsigned r = 1; r <= 8; ++r)
        b.movi(static_cast<isa::Reg>(r),
               static_cast<SWord>(rng.next() & 0xffff));
    for (Addr a = 0; a < 16; ++a)
        b.data(200 + a, rng.next());
    b.movi(20, 200);

    unsigned stores = 0;
    auto block = [&](int length) {
        for (int i = 0; i < length; ++i) {
            const unsigned pick = static_cast<unsigned>(rng.below(9));
            const isa::Reg rd = pick == 5 || pick == 6 ? scratch() : pool();
            const isa::Reg rs1 = pick == 6 ? scratch() : pool();
            const isa::Reg rs2 = pool();
            switch (pick) {
              case 0: b.add(rd, rs1, rs2); break;
              case 1: b.mul(rd, rs1, rs2); break;
              case 2: b.xor_(rd, rs1, rs2); break;
              case 3: b.sub(rd, rs1, rs2); break;
              case 4:
                b.addi(rd, rs1, static_cast<SWord>(rng.below(1000)));
                break;
              case 5: b.add(rd, rs1, rs2); break;
              case 6:
                b.shri(rd, rs1, static_cast<SWord>(rng.below(63)));
                break;
              case 7:
                b.load(rd, 20, static_cast<SWord>(rng.below(16)));
                break;
              default:
                b.store(20, rs2, static_cast<SWord>(16 + stores));
                ++stores;
                break;
            }
        }
    };
    unsigned diamonds = 0;
    auto diamond = [&](int length) {
        const std::string other = "else" + std::to_string(diamonds);
        const std::string join = "join" + std::to_string(diamonds++);
        b.andi(14, rng.below(2) == 0 ? scratch() : pool(), 1);
        b.beq(14, 0, other);
        block(length);
        b.jmp(join);
        b.label(other);
        block(length);
        b.label(join);
    };

    block(30);
    diamond(10);
    b.movi(9, 24);  // loop counter
    b.movi(10, 0);
    b.label("loop");
    diamond(16);
    block(12);
    b.store(20, pool(), static_cast<SWord>(16 + stores++));
    diamond(8);
    b.addi(9, 9, -1);
    b.bne(9, 10, "loop");
    b.halt();

    isa::Program program = b.build();
    for (isa::Instruction &inst : program.code())
        if (isa::isStore(inst.op))
            inst.sliceHint = rng.below(2) == 0;
    return program;
}

class LivenessDifferential : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LivenessDifferential, BranchyProgramsBuildIdentically)
{
    SliceRig rig(branchyProgram(GetParam()));
    ASSERT_GT(rig.program.sliceHintedStores(), 0u);
    DifferentialFeed feed(1, rig.program,
                          {greedy(3), greedy(10), costModel()},
                          {SliceRoots::kAllStores, SliceRoots::kHintedStores});
    // A rollback mid-run: every register becomes an opaque leaf.
    feed.afterStore = [&](std::uint64_t store) {
        if (store != 10)
            return;
        std::array<Word, isa::kNumRegs> regs{};
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            regs[r] = rig.core.reg(r);
        feed.resetCore(0, regs);
    };
    rig.core.run(1u << 22, &feed);

    EXPECT_GT(feed.stores, 10u) << "the reset never ran";
    EXPECT_GT(feed.admissible, 0u) << "degenerate program";
    EXPECT_GT(feed.compared, feed.stores * 3) << "no hinted store ran";
    const SliceEngine::Counters &all = feed.capped(0).counters();
    const SliceEngine::Counters &hinted = feed.capped(1).counters();
    EXPECT_GT(all.untrackedResults, 0u);
    EXPECT_GE(hinted.untrackedResults, all.untrackedResults);
    EXPECT_EQ(feed.mismatches, 0u) << "first: " << feed.firstMismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LivenessDifferential,
                         testing::Range<std::uint64_t>(1, 21));

/** r5 is read on the fall-through arm and redefined, unread, on the
 *  taken one. */
isa::Program
diamondProgram(bool take_branch)
{
    isa::ProgramBuilder b("diamond");
    b.movi(1, 3);
    b.movi(3, take_branch ? 0 : 1);  // a branch operand only
    b.addi(5, 1, 4);                 // live into the fall-through arm
    b.beq(3, 0, "taken");
    b.mul(2, 5, 5);
    b.jmp("join");
    b.label("taken");
    b.movi(5, 0);  // r5 is dead here: never read again
    b.movi(2, 9);
    b.label("join");
    b.movi(4, 100);  // an address only
    b.store(4, 2);
    b.halt();
    return b.build();
}

TEST(Liveness, RegisterTrackedOnOneArmIsDeadOnTheOther)
{
    const SlicePolicyConfig policy = greedy(10);
    for (bool take_branch : {false, true}) {
        SCOPED_TRACE(take_branch ? "taken arm" : "fall-through arm");
        SliceRig rig(diamondProgram(take_branch));
        rig.engine =
            SliceEngine(1, policy, rig.program, SliceRoots::kAllStores);
        auto built = rig.run(policy);

        ASSERT_EQ(built.size(), 1u);
        ASSERT_TRUE(built[0].has_value());
        // Fall-through: movi, addi, mul. Taken: the movi 9 alone.
        EXPECT_EQ(built[0]->slice.length(), take_branch ? 1u : 3u);
        EXPECT_EQ(built[0]->value, take_branch ? 9u : 49u);
        // Both arms skip the branch operand and the address; the taken
        // one also skips its redefinition of r5.
        EXPECT_EQ(rig.engine.counters().untrackedResults,
                  take_branch ? 3u : 2u);
    }
}

TEST(Liveness, UntrackedDefLeavesAStaleNodeATrackedDefReplaces)
{
    isa::ProgramBuilder b("stale");
    b.movi(1, 3);
    b.addi(2, 1, 1);
    b.muli(2, 2, 5);
    b.movi(4, 100);  // an address only
    b.store(4, 2);
    b.addi(2, 2, 1);  // used only as the next store's address
    b.store(2, 1);
    b.movi(2, 9);     // tracked: replaces the stale producer
    b.store(4, 2, 1);
    b.halt();
    SliceRig rig(b.build());
    DifferentialFeed feed(1, rig.program, {greedy(10)});
    std::vector<std::size_t> live;
    std::vector<std::size_t> reference;
    feed.afterStore = [&](std::uint64_t) {
        live.push_back(feed.capped(0).liveNodes());
        reference.push_back(feed.reference().liveNodes());
    };
    rig.core.run(1000, &feed);

    EXPECT_EQ(feed.mismatches, 0u) << feed.firstMismatch;
    EXPECT_EQ(feed.admissible, 3u);
    EXPECT_EQ(feed.capped(0).counters().untrackedResults, 2u);
    // The untracked addi leaves r2's slot on the muli node, which keeps
    // itself and the addi below it alive until movi 9 replaces it. The
    // reference also tracks movi 100 and the second addi.
    EXPECT_EQ(live, (std::vector<std::size_t>{3, 3, 2}));
    EXPECT_EQ(reference, (std::vector<std::size_t>{4, 5, 3}));
}

TEST(Liveness, EngineRefusesANonRootStore)
{
    isa::ProgramBuilder b("unhinted");
    b.movi(1, 7);
    b.movi(2, 100);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());
    rig.engine = SliceEngine(1, greedy(10), rig.program,
                             SliceRoots::kHintedStores);
    EXPECT_DEATH(rig.run(greedy(10)), "not a root");
}

/** All 8 kernels under the pass's observer, at each kernel's
 *  threshold and under the cost model, with every store a root (the
 *  slice pass) and with the pass's hinted stores as roots (a ReCkpt
 *  run). */
class KernelDepthCap : public testing::TestWithParam<std::string>
{
};

TEST_P(KernelDepthCap, BuildsIdenticallyToUncapped)
{
    workloads::WorkloadParams params;
    params.threads = 2;
    const sim::MachineConfig machine =
        sim::MachineConfig::tableI(params.threads);
    const SlicePolicyConfig policy =
        greedy(harness::Runner::defaultThreshold(GetParam()));
    const isa::Program program =
        amnesic::SlicePass::run(
            workloads::makeWorkload(GetParam())->build(params), machine,
            policy)
            .program;
    ASSERT_GT(program.sliceHintedStores(), 0u);
    sim::MulticoreSystem system(machine, program);
    DifferentialFeed feed(params.threads, program, {policy, costModel()},
                          {SliceRoots::kAllStores, SliceRoots::kHintedStores});
    system.runToCompletionWith(&feed);

    EXPECT_GT(feed.admissible, 0u);
    EXPECT_EQ(feed.mismatches, 0u) << "first: " << feed.firstMismatch;
    const SliceEngine::Counters &capped = feed.capped(0).counters();
    const SliceEngine::Counters &hinted = feed.capped(1).counters();
    const SliceEngine::Counters &uncapped = feed.reference().counters();
    EXPECT_GT(capped.deepResults, 0u);
    EXPECT_LT(capped.nodesAllocated, uncapped.nodesAllocated);
    EXPECT_EQ(capped.builds, feed.stores);
    EXPECT_GT(hinted.builds, 0u);
    EXPECT_LT(hinted.builds, feed.stores);
    // Fewer roots can only make fewer results live.
    EXPECT_GE(hinted.untrackedResults, capped.untrackedResults);
    EXPECT_EQ(uncapped.deepResults, 0u);
    EXPECT_EQ(uncapped.untrackedResults, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelDepthCap,
    testing::ValuesIn(workloads::allWorkloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace acr::slice
