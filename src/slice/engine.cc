#include "slice/engine.hh"

#include <algorithm>

#include "common/logging.hh"

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

SliceEngine::SliceEngine(unsigned num_cores, const SlicePolicyConfig &policy)
    : SliceEngine(num_cores)
{
    depthCap_ = std::min(policy.buildCap(), sizeCap_);
}

SliceEngine::~SliceEngine()
{
    for (auto &regs : regNodes_)
        for (NodeRef ref : regs)
            if (holdsNode(ref))
                release(ref);
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
