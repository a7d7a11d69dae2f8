#include "harness/experiment.hh"

#include "common/logging.hh"

namespace acr::harness
{

std::string
ExperimentConfig::label() const
{
    std::string base;
    switch (mode) {
      case BerMode::kNoCkpt:
        return "NoCkpt";
      case BerMode::kCkpt:
        base = "Ckpt";
        break;
      case BerMode::kReCkpt:
        base = "ReCkpt";
        break;
    }
    base += numErrors > 0 ? "_E" : "_NE";
    if (coordination == ckpt::Coordination::kLocal)
        base += ",Loc";
    // Default-backend labels stay exactly as they always were, so the
    // seed benches render byte-identically when --backend is omitted.
    if (backend != ckpt::Backend::kLog)
        base += std::string("@") + ckpt::backendName(backend);
    return base;
}

std::string
ExperimentConfig::validate() const
{
    if (detectionLatencyFraction < 0.0 || detectionLatencyFraction > 1.0)
        return csprintf("detectionLatencyFraction must be in [0, 1] "
                        "(Sec. II-A: detection within one checkpoint "
                        "period), got %g",
                        detectionLatencyFraction);
    if (placement == PlacementPolicy::kRecomputeAware &&
        mode != BerMode::kReCkpt)
        return csprintf("placement == kRecomputeAware requires "
                        "mode == kReCkpt (deferral decisions need the "
                        "slice profile), got mode %s",
                        label().c_str());
    if (sliceThreshold == 0)
        return "sliceThreshold must be nonzero (0 is only a request "
               "for the per-workload default, which Runner::run "
               "resolves before validation)";
    if (sliceThreshold > slice::kSliceSizeCap)
        return csprintf("sliceThreshold must be at most %u (the "
                        "slicer's size cap: a longer chain collapses "
                        "into a captured input, so the run would "
                        "silently measure %u), got %u",
                        slice::kSliceSizeCap, slice::kSliceSizeCap,
                        sliceThreshold);
    if (numErrors > 0 && mode == BerMode::kNoCkpt)
        return csprintf("numErrors > 0 requires a checkpointing mode "
                        "(NoCkpt cannot recover), got numErrors = %u",
                        numErrors);
    if (mode == BerMode::kNoCkpt && backend != ckpt::Backend::kLog)
        return csprintf("backend == %s requires a checkpointing mode "
                        "(NoCkpt stores no checkpoints, so a non-"
                        "default backend would silently measure "
                        "nothing)",
                        ckpt::backendName(backend));
    if (placementSlack < 0.0 || placementSlack > 1.0)
        return csprintf("placementSlack must be in [0, 1] (a fraction "
                        "of the checkpoint period), got %g",
                        placementSlack);
    if (oracle && mode == BerMode::kNoCkpt)
        return "oracle == true requires a checkpointing mode (there is "
               "no recovery to validate under NoCkpt)";
    if (faultEventMask == 0 && numErrors > 0)
        return csprintf("faultEventMask == 0 would silently drop all "
                        "%u planned errors; use numErrors = 0 instead",
                        numErrors);
    if (storageErrors > 0 && mode == BerMode::kNoCkpt)
        return csprintf("storageErrors > 0 requires a checkpointing "
                        "mode (NoCkpt stores nothing to corrupt), got "
                        "storageErrors = %u",
                        storageErrors);
    if (storageFaultMask == 0 && storageErrors > 0)
        return csprintf("storageFaultMask == 0 would silently drop all "
                        "%u planned storage faults; use "
                        "storageErrors = 0 instead",
                        storageErrors);
    return "";
}

} // namespace acr::harness
