/**
 * @file
 * Slice selection policies (Sec. III-A). The paper's evaluation uses the
 * greedy minimal-complexity policy — embed every Slice shorter than a
 * preset instruction-count threshold — and sketches a probabilistic
 * cost-based alternative, which we implement as an ablation
 * (kCostModel): accept a Slice when its estimated recomputation cost is
 * below the cost of restoring the value from a checkpoint in memory.
 */

#ifndef ACR_SLICE_POLICY_HH
#define ACR_SLICE_POLICY_HH

#include <cstdint>

namespace acr::slice
{

/**
 * The slicer's size cap: a producer chain of (approximately) more
 * instructions collapses into a captured input, so no Slice is ever
 * longer. A length threshold above it would silently measure this cap.
 */
inline constexpr unsigned kSliceSizeCap = 128;

/** How the compiler pass decides which Slices to embed. */
enum class SelectionPolicy
{
    /** Embed iff slice length <= lengthThreshold (the paper's choice). */
    kGreedyThreshold,
    /** Embed iff estimated recompute cost <= estimated restore cost. */
    kCostModel,
};

/** Parameters of slice selection. */
struct SlicePolicyConfig
{
    SelectionPolicy policy = SelectionPolicy::kGreedyThreshold;

    /** Greedy cap on slice instruction count (paper default: 10). */
    unsigned lengthThreshold = 10;

    /** Cap on captured input operands per slice instance. */
    unsigned maxInputs = 64;

    // --- Cost-model parameters (energy-like units, pJ) ---
    double aluCost = 1.2;
    double operandCost = 2.2;
    double wordReadCost = 8 * 14.0;   ///< DRAM word read.
    double wordWriteCost = 8 * 14.0;  ///< DRAM word write.
    /** Accept when recompute <= costMargin * restore. */
    double costMargin = 1.0;
    /** Hard length cap while exploring under the cost model. */
    unsigned costModelMaxLen = 64;

    /** Instruction-count cap the builder should apply while walking. */
    unsigned
    buildCap() const
    {
        return policy == SelectionPolicy::kGreedyThreshold
                   ? lengthThreshold
                   : costModelMaxLen;
    }

    /** Final accept/reject for a built slice. */
    bool
    accepts(std::size_t length, std::size_t num_inputs) const
    {
        if (length == 0)
            return false;  // a pure copy of a loaded value is not a Slice
        if (num_inputs > maxInputs)
            return false;
        if (policy == SelectionPolicy::kGreedyThreshold)
            return length <= lengthThreshold;
        const double recompute = static_cast<double>(length) * aluCost +
                                 static_cast<double>(num_inputs) *
                                     operandCost +
                                 wordWriteCost;
        const double restore = wordReadCost + wordWriteCost;
        return length <= costModelMaxLen &&
               recompute <= costMargin * restore;
    }
};

} // namespace acr::slice

#endif // ACR_SLICE_POLICY_HH
