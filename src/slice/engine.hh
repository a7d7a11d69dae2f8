/**
 * @file
 * SliceEngine: the dynamic backward slicer — the simulator's equivalent
 * of the paper's Pin-based compiler pass (Sec. IV: "We implemented ACR's
 * compiler pass ... as a Pin tool").
 *
 * For every core and register the engine maintains the producer DAG of
 * the current value: arithmetic instructions link to the nodes of their
 * register operands; loads, tid reads and over-long chains become opaque
 * leaves whose *values* are captured. When a store executes, the engine
 * linearizes the DAG behind the stored value into a StaticSlice (arith
 * ops only) plus captured input operands — or reports that no admissible
 * Slice exists.
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
 * All of this is pure allocation/bookkeeping layout: every emitted
 * slice is bit-identical to the uncapped engine's (locked by the
 * differential test in tests/slice_test.cpp, perf_equiv_test and
 * golden_stdout). Index addressing also makes the whole engine plain
 * copyable state, which is what lets the prefix-sharing snapshot
 * (DESIGN.md §13.6) clone a mid-run slicer with a handful of vector
 * copies.
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

/** Per-register producer tracking plus the slice builder. */
class SliceEngine
{
  public:
    /**
     * Uncapped engine: keeps a node for every result below the size
     * cap, so it can build for any policy.
     * @param num_cores  cores to track
     * @param size_cap   producer chains whose (approximate) instruction
     *                   count exceeds this become opaque leaves; bounds
     *                   both tracking memory and builder work. Must be
     *                   at least the largest threshold under study.
     */
    explicit SliceEngine(unsigned num_cores,
                         unsigned size_cap = kSliceSizeCap);

    /**
     * Depth-capped engine for one policy: results deeper than
     * @p policy.buildCap() get no node. buildForStore() then only
     * accepts policies whose Slices fit that cap.
     */
    SliceEngine(unsigned num_cores, const SlicePolicyConfig &policy);
    ~SliceEngine();

    // Index-addressed state: copying the engine copies the whole DAG,
    // which the prefix-sharing snapshot relies on.
    SliceEngine(const SliceEngine &) = default;
    SliceEngine &operator=(const SliceEngine &) = default;

    /**
     * Feed one retired instruction (call for every instruction).
     * Defined inline below: with the observer devirtualized into the
     * core's dispatch loop, this is the hottest function in the
     * simulator, and keeping it in the header lets the whole
     * alloc/retain/release path fold into the caller.
     */
    void observe(const cpu::InstrEvent &event);

    /**
     * Build the Slice for the value a store wrote (the producer DAG of
     * rs2 at the time of @p event).
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
    };
    const Counters &counters() const { return counters_; }

  private:
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

inline SliceEngine::NodeRef
SliceEngine::alloc()
{
    NodeRef ref;
    if (freeHead_ != kNil) {
        ref = freeHead_;
        freeHead_ = arena_[ref].in1;
    } else {
        ref = static_cast<NodeRef>(arena_.size());
        arena_.emplace_back();
    }
    Node &node = arena_[ref];
    node.in1 = kNil;
    node.in2 = kNil;
    node.refs = 1;
    node.buildEpoch = 0;
    ++liveNodes_;
    ++counters_.nodesAllocated;
    return ref;
}

inline SliceEngine::NodeRef
SliceEngine::leaf(Word value)
{
    NodeRef ref = alloc();
    Node &node = arena_[ref];
    node.depth = 0;
    node.op = isa::Opcode::kMovi;
    node.imm = 0;
    node.value = value;
    node.approxSize = 1;
    return ref;
}

inline void
SliceEngine::observe(const cpu::InstrEvent &event)
{
    const isa::Instruction &inst = *event.inst;
    ACR_ASSERT(event.core < numCores_, "event from unknown core %u",
               event.core);
    auto &regs = regNodes_[event.core];
    auto &vals = regValues_[event.core];

    if (isa::isLoad(inst.op) || inst.op == isa::Opcode::kTid) {
        // Memory instructions and tid reads terminate slices: the value
        // itself becomes a capturable input operand. The leaf stays
        // lazy — a value parked in the slot — so a loaded value that is
        // stored or overwritten without arith use never costs a node.
        NodeRef old = regs[inst.rd];
        regs[inst.rd] = kLazy;
        vals[inst.rd] = event.result;
        if (holdsNode(old))
            release(old);
        return;
    }

    if (!isSliceable(inst.op))
        return;  // stores, branches, barriers, halt: no register change

    const bool use1 = isa::readsRs1(inst.op);
    const bool use2 = isa::readsRs2(inst.op);

    // The result's approxSize and depth. A kDeep operand is deeper
    // than the cap, so it makes the result deep too (~0u).
    std::uint64_t approx = 1;
    unsigned depth = 1;
    auto account = [&](isa::Reg r) {
        const NodeRef src = regs[r];
        if (src == kLazy)
            return;
        if (src == kDeep) {
            approx += vals[r];
            depth = ~0u;
            return;
        }
        const Node &node = arena_[src];
        if (node.depth != 0) {
            approx += node.approxSize;
            depth = std::max(depth, node.depth + 1u);
        }
    };
    if (use1)
        account(inst.rs1);
    if (use2)
        account(inst.rs2);

    if (approx > sizeCap_) {
        // Chain exceeds every threshold under study: collapse to an
        // opaque leaf — in the lazy representation, no node at all.
        // This bounds tracking memory, builder work, and teardown
        // depth.
        NodeRef old = regs[inst.rd];
        regs[inst.rd] = kLazy;
        vals[inst.rd] = event.result;
        if (holdsNode(old))
            release(old);
        return;
    }

    if (depth > depthCap_) {
        // No admissible Slice can contain this result: keep only the
        // approxSize its consumers' collapse test needs. Its lazy
        // operands stay lazy; the next shallow reader materializes
        // and shares them exactly as it would have.
        NodeRef old = regs[inst.rd];
        regs[inst.rd] = kDeep;
        vals[inst.rd] = approx;
        ++counters_.deepResults;
        if (holdsNode(old))
            release(old);
        return;
    }

    // Materialize lazy inputs before the node alloc: leaf() may grow
    // the arena, and a materialized leaf parked back in its slot is
    // shared by every later reader of the same register (identical
    // sharing — and therefore identical emitted slices — to the eager
    // scheme).
    NodeRef in1 = kNil;
    NodeRef in2 = kNil;
    if (use1) {
        if (regs[inst.rs1] == kLazy)
            regs[inst.rs1] = leaf(vals[inst.rs1]);
        in1 = regs[inst.rs1];
    }
    if (use2) {
        if (regs[inst.rs2] == kLazy)
            regs[inst.rs2] = leaf(vals[inst.rs2]);
        in2 = regs[inst.rs2];
    }

    NodeRef ref = alloc();
    // No further alloc below: the reference stays valid.
    Node &node = arena_[ref];
    node.depth = static_cast<std::uint8_t>(std::min(depth, 255u));
    node.op = inst.op;
    node.imm = inst.imm;
    node.value = event.result;
    node.approxSize = static_cast<std::uint16_t>(approx);
    if (in1 != kNil) {
        node.in1 = in1;
        ++arena_[in1].refs;
    }
    if (in2 != kNil) {
        node.in2 = in2;
        ++arena_[in2].refs;
    }

    // Release the overwritten producer only after the inputs are
    // retained: rd may alias rs1/rs2.
    NodeRef old = regs[inst.rd];
    regs[inst.rd] = ref;
    if (holdsNode(old))
        release(old);
}

} // namespace acr::slice

#endif // ACR_SLICE_ENGINE_HH
