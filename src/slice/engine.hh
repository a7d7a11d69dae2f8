/**
 * @file
 * SliceEngine: the dynamic backward slicer — the simulator's equivalent
 * of the paper's Pin-based compiler pass (Sec. IV: "We implemented ACR's
 * compiler pass ... as a Pin tool").
 *
 * For every core and register the engine maintains the producer DAG of
 * the current value: arithmetic instructions link to the nodes of their
 * register operands; loads, tid reads and over-long chains become opaque
 * leaves whose *values* are captured. When a root store executes, the
 * engine linearizes the DAG behind the stored value into a StaticSlice
 * (arith ops only) plus captured input operands — or reports that no
 * admissible Slice exists.
 *
 * Value liveness (DESIGN.md §13.2): an engine built for a program and a
 * root choice (every store for the slice pass, hinted stores for a
 * ReCkpt run) tracks only the results some CFG path can carry into a
 * root store's value through arithmetic. A backward liveness pass over
 * the program computes that once per engine as a per-pc action;
 * observe() tests it inline and leaves every other result alone — its
 * register slot keeps a stale producer that no root can read. The
 * tracking body itself is out of line (engine.cc): inlined into the
 * core's dispatch loop it cost more than it saved (§13.3).
 *
 * Hot-path layout (DESIGN.md §13.2): nodes live in a flat engine-owned
 * arena addressed by 32-bit indices — a packed 40-byte node with an
 * intrusive non-atomic refcount; an engine belongs to exactly one
 * experiment frame, which runs on one thread. The linearizer's
 * visited-map is an epoch-stamped slot carried in the node itself.
 * Two register-slot sentinels keep most results out of the arena:
 *
 *  - kLazy: a leaf producer (load, tid read, over-size collapse) is
 *    just a value in the slot until an arithmetic instruction links
 *    it; then one leaf node is materialized and shared by every later
 *    reader, so load→store / load→overwrite never touch the arena.
 *  - kDeep: every node carries its longest arithmetic path (`depth`),
 *    and a Slice emits every arith node its root reaches, so it has at
 *    least `depth` instructions. A result deeper than the engine's
 *    depth cap (the policy's buildCap()) can therefore be part of no
 *    admissible Slice: it gets no node, only its approxSize (which
 *    still drives the size-cap collapse of its consumers), and a store
 *    of it is answered without a walk.
 *
 * All of this is pure allocation/bookkeeping layout: every slice built
 * at a root store is bit-identical to the uncapped, untracked engine's
 * (locked by the differential tests in tests/slice_test.cpp,
 * perf_equiv_test and golden_stdout). Index addressing also makes the
 * whole engine plain copyable state, which is what lets the
 * prefix-sharing snapshot (DESIGN.md §13.6) clone a mid-run slicer with
 * a handful of vector copies.
 */

#ifndef ACR_SLICE_ENGINE_HH
#define ACR_SLICE_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "cpu/exec_observer.hh"
#include "isa/instruction.hh"
#include "slice/policy.hh"
#include "slice/static_slice.hh"

namespace acr::isa
{
class Program;
} // namespace acr::isa

namespace acr::slice
{

/** Result of linearizing a producer DAG. */
struct BuiltSlice
{
    StaticSlice slice;
    std::vector<Word> inputs;
    /** The value the slice recomputes (== the stored value). */
    Word value = 0;
};

/** Which stores build Slices, and so which results an engine tracks. */
enum class SliceRoots
{
    /** Every store: the slice pass tries each one. */
    kAllStores,
    /** Stores carrying the pass's sliceHint: the only ones a ReCkpt
     *  run's AcrEngine builds at. */
    kHintedStores,
};

/** Per-register producer tracking plus the slice builder. */
class SliceEngine
{
  public:
    /**
     * Uncapped, untracked engine: keeps a node for every result below
     * the size cap, at every pc, so it can build for any policy at any
     * store. The reference the tracked engines are tested against.
     * @param num_cores  cores to track
     * @param size_cap   producer chains whose (approximate) instruction
     *                   count exceeds this become opaque leaves; bounds
     *                   both tracking memory and builder work. Must be
     *                   at least the largest threshold under study.
     */
    explicit SliceEngine(unsigned num_cores,
                         unsigned size_cap = kSliceSizeCap);

    /**
     * Depth-capped, tracked engine for one run of @p program: results
     * deeper than @p policy.buildCap() get no node, and results no
     * @p roots store can read get no tracking at all. buildForStore()
     * then only accepts root stores and policies whose Slices fit the
     * cap. Only the program's code is read, and only here.
     */
    SliceEngine(unsigned num_cores, const SlicePolicyConfig &policy,
                const isa::Program &program, SliceRoots roots);
    ~SliceEngine();

    // Index-addressed state: copying the engine copies the whole DAG,
    // which the prefix-sharing snapshot relies on.
    SliceEngine(const SliceEngine &) = default;
    SliceEngine &operator=(const SliceEngine &) = default;

    /**
     * Feed one retired instruction (call for every instruction).
     * Only the per-pc tracking test is inline (below): with the
     * observer devirtualized into the core's dispatch loop it runs for
     * every simulated instruction, and most of them are untracked.
     * The tracking body is out of line (DESIGN.md §13.3).
     */
    void observe(const cpu::InstrEvent &event);

    /**
     * Build the Slice for the value a root store wrote (the producer
     * DAG of rs2 at the time of @p event).
     * @return nullptr when the value has no admissible Slice under
     *         @p policy (producer is a load, chain too long, too many
     *         inputs). A non-null result points into engine-owned
     *         scratch reused by the next build call — copy out what
     *         must survive. Millions of stores build slices per run,
     *         so the builder must not allocate fresh result vectors
     *         each time (DESIGN.md §13).
     */
    const BuiltSlice *buildForStore(const cpu::InstrEvent &event,
                                    const SlicePolicyConfig &policy);

    /**
     * Rollback support: producer chains for @p core are no longer valid;
     * every register becomes an opaque leaf holding its restored value.
     */
    void resetCore(CoreId core, const std::array<Word, isa::kNumRegs> &regs);

    unsigned sizeCap() const { return sizeCap_; }

    /** Nodes currently alive (tests/debugging). */
    std::size_t liveNodes() const { return liveNodes_; }

    /** Host-independent work counts since construction. */
    struct Counters
    {
        /** Arena node allocations (arith results and leaves). */
        std::uint64_t nodesAllocated = 0;
        /** Arith results deeper than the depth cap (no node). */
        std::uint64_t deepResults = 0;
        /** buildForStore() calls. */
        std::uint64_t builds = 0;
        /** Builds answered from the root slot alone (no walk). */
        std::uint64_t walklessBuilds = 0;
        /** Register results no root store can read (not tracked). */
        std::uint64_t untrackedResults = 0;
    };
    const Counters &counters() const { return counters_; }

  private:
    /** What observe() does at one pc; computed once per engine. */
    enum PcAction : std::uint8_t
    {
        /** Writes no register (branch, barrier, halt, non-root store). */
        kNoResult = 0,
        /** Writes a register no root store can read: skipped. */
        kUntracked = 1,
        /** A result some root can read, or a root store: tracked. */
        kTracked = 2,
    };
    /** One PcAction per pc of @p program: the value-liveness pass
     *  (DESIGN.md §13.2). */
    static std::vector<std::uint8_t>
    computeActions(const isa::Program &program, SliceRoots roots);

    /** observe()'s out-of-line body: producer tracking for one
     *  instruction. */
    void track(const cpu::InstrEvent &event);

    /** Arena index of a node; kNil is the null producer. */
    using NodeRef = std::uint32_t;
    static constexpr NodeRef kNil = 0xFFFFFFFFu;
    /**
     * Register-slot sentinel: the producer is a leaf whose value sits
     * in regValues_ and whose node has not been materialized (and
     * never will be unless an arithmetic instruction links it).
     */
    static constexpr NodeRef kLazy = 0xFFFFFFFEu;
    /**
     * Register-slot sentinel: the producer is an arith result deeper
     * than depthCap_; it has no node, and its approxSize sits in
     * regValues_.
     */
    static constexpr NodeRef kDeep = 0xFFFFFFFDu;
    /** Whether a register slot holds an arena node (not a sentinel). */
    static bool holdsNode(NodeRef ref) { return ref < kDeep; }

    /**
     * A packed producer-DAG node (40 bytes; two per cache line, vs 56
     * with pointer links). `refs` counts register slots plus parent
     * links; `buildEpoch`/`buildSlot` are the linearizer's visited
     * stamp (valid only while buildEpoch matches the engine's current
     * walk). `depth` is the longest arith path down from the node,
     * saturating at 255; 0 marks a leaf. When a node sits on the free
     * list, `in1` doubles as the list link.
     */
    struct Node
    {
        Word value;
        SWord imm;
        NodeRef in1;
        NodeRef in2;
        std::uint32_t refs;
        std::uint32_t buildEpoch;
        std::int32_t buildSlot;
        std::uint16_t approxSize;
        isa::Opcode op;
        std::uint8_t depth;
    };
    static_assert(sizeof(Node) == 40, "Node packing regressed");

    NodeRef alloc();
    NodeRef leaf(Word value);
    void retain(NodeRef ref) { ++arena_[ref].refs; }
    /** Drop one reference; reclaims the node (and, transitively, its
     *  children) into the free list when it was the last. The childless
     *  case — every load/tid leaf, the bulk of node deaths — is freed
     *  inline; only a node with children drops to the out-of-line
     *  cascade. */
    void
    release(NodeRef ref)
    {
        Node &node = arena_[ref];
        if (--node.refs != 0)
            return;
        NodeRef a = node.in1;
        NodeRef b = node.in2;
        node.in1 = freeHead_;
        freeHead_ = ref;
        --liveNodes_;
        if (a != kNil || b != kNil)
            releaseChildren(a, b);
    }
    /** Out-of-line teardown of a freed node's subtrees. */
    void releaseChildren(NodeRef a, NodeRef b);

    const BuiltSlice *buildFromNode(NodeRef root,
                                    const SlicePolicyConfig &policy);

    /** PcAction per static pc; empty in the reference engine, which
     *  tracks every pc and accepts every store. */
    std::vector<std::uint8_t> actions_;
    unsigned numCores_;
    unsigned sizeCap_;
    /** Results deeper than this get no node (sizeCap_: uncapped). */
    unsigned depthCap_;
    std::vector<std::array<NodeRef, isa::kNumRegs>> regNodes_;
    /** Value of each register's producer when its slot is kLazy;
     *  its approxSize when the slot is kDeep. */
    std::vector<std::array<Word, isa::kNumRegs>> regValues_;

    // --- Node arena (flat; indices stay valid across growth) ---
    std::vector<Node> arena_;
    NodeRef freeHead_ = kNil;
    std::size_t liveNodes_ = 0;

    // --- Reused walk scratch (arena-style: capacity survives calls) ---
    struct Frame
    {
        NodeRef node;
        bool expanded;
    };
    std::vector<Frame> buildStack_;
    std::vector<NodeRef> releaseStack_;
    std::uint32_t buildEpoch_ = 0;
    /** Result slot of buildFromNode; vectors keep their capacity. */
    BuiltSlice buildScratch_;
    Counters counters_;
};

inline void
SliceEngine::observe(const cpu::InstrEvent &event)
{
    if (event.pc < actions_.size()) {
        const std::uint8_t action = actions_[event.pc];
        if (action != kTracked) {
            // kUntracked counts one result, kNoResult none.
            counters_.untrackedResults += action;
            return;
        }
    }
    track(event);
}

} // namespace acr::slice

#endif // ACR_SLICE_ENGINE_HH
