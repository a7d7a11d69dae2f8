#include "slice/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/program.hh"

namespace acr::slice
{

using isa::Opcode;

SliceEngine::SliceEngine(unsigned num_cores, unsigned size_cap)
    : numCores_(num_cores), sizeCap_(size_cap), depthCap_(size_cap)
{
    ACR_ASSERT(num_cores >= 1, "slice engine needs >= 1 core");
    ACR_ASSERT(size_cap >= 1, "size cap must be >= 1");
    ACR_ASSERT(size_cap <= 0xFFFF,
               "size cap must fit the packed 16-bit approxSize");
    regNodes_.resize(num_cores);
    regValues_.resize(num_cores);
    for (auto &regs : regNodes_)
        regs.fill(kLazy);
    for (auto &vals : regValues_)
        vals.fill(0);
}

SliceEngine::SliceEngine(unsigned num_cores, const SlicePolicyConfig &policy,
                         const isa::Program &program, SliceRoots roots)
    : SliceEngine(num_cores)
{
    depthCap_ = std::min(policy.buildCap(), sizeCap_);
    actions_ = computeActions(program, roots);
}

std::vector<std::uint8_t>
SliceEngine::computeActions(const isa::Program &program, SliceRoots roots)
{
    // Backward value liveness over the CFG. Register r is live after
    // pc when some path from pc reads r, before redefining it, as a
    // root store's value (rs2) or as an operand of a tracked
    // arithmetic instruction; addresses and branch operands never
    // count. A register-writing instruction is tracked iff its rd is
    // live after it. Tracking feeds liveness back (a tracked result's
    // operands become live), so iterate from empty sets to the least
    // fixpoint. Branch targets are immediates and faults flip only
    // values, so every dynamic path is a CFG path.
    using RegSet = std::uint32_t;
    static_assert(isa::kNumRegs <= 32, "RegSet holds one bit per reg");
    auto bit = [](isa::Reg r) {
        ACR_ASSERT(r < isa::kNumRegs, "register r%u out of range", r);
        return RegSet{1} << r;
    };
    auto isRoot = [roots](const isa::Instruction &inst) {
        return isa::isStore(inst.op) &&
               (roots == SliceRoots::kAllStores || inst.sliceHint);
    };

    const std::size_t size = program.size();
    std::vector<RegSet> liveIn(size, 0);
    auto liveOut = [&](std::size_t pc) {
        const isa::Instruction &inst = program.at(pc);
        RegSet out = 0;
        if (inst.op != Opcode::kHalt && inst.op != Opcode::kJmp &&
            pc + 1 < size)
            out |= liveIn[pc + 1];
        if (isa::isBranch(inst.op) && inst.imm >= 0 &&
            static_cast<std::size_t>(inst.imm) < size)
            out |= liveIn[static_cast<std::size_t>(inst.imm)];
        return out;
    };

    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t pc = size; pc-- > 0;) {
            const isa::Instruction &inst = program.at(pc);
            RegSet live = liveOut(pc);
            if (isa::writesReg(inst.op)) {
                // An untracked def still ends its register's liveness:
                // the readers after it read its value, not an older
                // one, and none of them is a tracked use.
                const bool tracked = (live & bit(inst.rd)) != 0;
                live &= ~bit(inst.rd);
                if (tracked && isa::isSliceable(inst.op)) {
                    if (isa::readsRs1(inst.op))
                        live |= bit(inst.rs1);
                    if (isa::readsRs2(inst.op))
                        live |= bit(inst.rs2);
                }
            } else if (isRoot(inst)) {
                live |= bit(inst.rs2);
            }
            if (live != liveIn[pc]) {
                liveIn[pc] = live;
                changed = true;
            }
        }
    }

    std::vector<std::uint8_t> actions(size, kNoResult);
    for (std::size_t pc = 0; pc < size; ++pc) {
        const isa::Instruction &inst = program.at(pc);
        if (isa::writesReg(inst.op))
            actions[pc] =
                (liveOut(pc) & bit(inst.rd)) != 0 ? kTracked : kUntracked;
        else if (isRoot(inst))
            actions[pc] = kTracked;
    }
    return actions;
}

SliceEngine::~SliceEngine()
{
    for (auto &regs : regNodes_)
        for (NodeRef ref : regs)
            if (holdsNode(ref))
                release(ref);
}

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

void
SliceEngine::track(const cpu::InstrEvent &event)
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

void
SliceEngine::releaseChildren(NodeRef a, NodeRef b)
{
    // Iterative teardown: dropping the last reference to a chain head
    // must not recurse down the chain (sizeCap_ bounds arith depth,
    // but an explicit stack keeps the walk allocation-free and flat).
    if (a != kNil && --arena_[a].refs == 0)
        releaseStack_.push_back(a);
    if (b != kNil && --arena_[b].refs == 0)
        releaseStack_.push_back(b);
    while (!releaseStack_.empty()) {
        NodeRef ref = releaseStack_.back();
        releaseStack_.pop_back();
        Node &dead = arena_[ref];
        if (dead.in1 != kNil && --arena_[dead.in1].refs == 0)
            releaseStack_.push_back(dead.in1);
        if (dead.in2 != kNil && --arena_[dead.in2].refs == 0)
            releaseStack_.push_back(dead.in2);
        dead.in1 = freeHead_;
        freeHead_ = ref;
        --liveNodes_;
    }
}

const BuiltSlice *
SliceEngine::buildForStore(const cpu::InstrEvent &event,
                           const SlicePolicyConfig &policy)
{
    const isa::Instruction &inst = *event.inst;
    ACR_ASSERT(isa::isStore(inst.op), "buildForStore on a non-store");
    ACR_ASSERT(event.pc >= actions_.size() || actions_[event.pc] == kTracked,
               "store at pc %zu is not a root of this engine: the "
               "results it reads are not tracked",
               event.pc);
    // A Slice is never longer than the size cap, so this asks that
    // every Slice the policy could admit fits the depth cap.
    ACR_ASSERT(std::min(policy.buildCap(), sizeCap_) <= depthCap_,
               "policy admits %u-instruction Slices but the engine "
               "drops results deeper than %u",
               policy.buildCap(), depthCap_);
    ++counters_.builds;
    NodeRef root = regNodes_[event.core][inst.rs2];
    // A leaf root is a pure load/copy; a kDeep root is too deep for
    // any admissible Slice. Neither needs a walk.
    if (!holdsNode(root) || arena_[root].depth == 0) {
        ++counters_.walklessBuilds;
        return nullptr;
    }
    const BuiltSlice *built = buildFromNode(root, policy);
    if (built) {
        ACR_ASSERT(built->value == event.result,
                   "slice root value desynced from stored value");
    }
    return built;
}

const BuiltSlice *
SliceEngine::buildFromNode(NodeRef rootRef, const SlicePolicyConfig &policy)
{
    const unsigned max_instrs = policy.buildCap();

    BuiltSlice &out = buildScratch_;
    out.slice.code.clear();
    out.slice.numInputs = 0;
    out.inputs.clear();
    out.value = arena_[rootRef].value;

    // Iterative post-order walk. The visited map lives *in* the nodes:
    // a node whose buildEpoch matches this walk's stamp has its source
    // encoding (slice-instruction index or input index) in buildSlot —
    // same traversal, same emission order as the hash-map version,
    // with the lookup reduced to one compare. The stamp is 32 bits to
    // keep the node packed; on the (per-engine, ~4B builds) wraparound
    // every stale stamp is cleared before reuse.
    if (++buildEpoch_ == 0) {
        for (Node &node : arena_)
            node.buildEpoch = 0;
        buildEpoch_ = 1;
    }
    const std::uint32_t epoch = buildEpoch_;
    auto visited = [this, epoch](NodeRef ref) {
        return arena_[ref].buildEpoch == epoch;
    };

    buildStack_.clear();
    buildStack_.push_back({rootRef, false});

    while (!buildStack_.empty()) {
        Frame frame = buildStack_.back();
        buildStack_.pop_back();
        Node &node = arena_[frame.node];

        if (node.buildEpoch == epoch)
            continue;

        if (node.depth == 0) {
            // Opaque leaf: capture the value as an input operand.
            if (out.inputs.size() >= policy.maxInputs)
                return nullptr;
            std::uint32_t k = static_cast<std::uint32_t>(out.inputs.size());
            out.inputs.push_back(node.value);
            node.buildEpoch = epoch;
            node.buildSlot = inputSrc(k);
            continue;
        }

        if (!frame.expanded) {
            buildStack_.push_back({frame.node, true});
            if (node.in1 != kNil && !visited(node.in1))
                buildStack_.push_back({node.in1, false});
            if (node.in2 != kNil && !visited(node.in2))
                buildStack_.push_back({node.in2, false});
            continue;
        }

        // Children resolved: emit this instruction.
        if (out.slice.code.size() >= max_instrs)
            return nullptr;
        SliceInstr si;
        si.op = node.op;
        si.imm = node.imm;
        si.src1 = node.in1 != kNil ? arena_[node.in1].buildSlot : kNoSrc;
        si.src2 = node.in2 != kNil ? arena_[node.in2].buildSlot : kNoSrc;
        std::int32_t slot = static_cast<std::int32_t>(out.slice.code.size());
        out.slice.code.push_back(si);
        node.buildEpoch = epoch;
        node.buildSlot = slot;
    }

    out.slice.numInputs = static_cast<std::uint32_t>(out.inputs.size());

    if (!policy.accepts(out.slice.length(), out.inputs.size()))
        return nullptr;
    return &out;
}

void
SliceEngine::resetCore(CoreId core,
                       const std::array<Word, isa::kNumRegs> &regs)
{
    ACR_ASSERT(core < numCores_, "resetCore on unknown core %u", core);
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        NodeRef old = regNodes_[core][r];
        regNodes_[core][r] = kLazy;
        regValues_[core][r] = regs[r];
        if (holdsNode(old))
            release(old);
    }
}

} // namespace acr::slice
