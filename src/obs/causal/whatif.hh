/**
 * @file
 * What-if speedup prediction over the causal activity graph.
 *
 * The predictor replays the runner's phase-timing arithmetic over the
 * recorded CausalReport with scaled resource parameters: link-time
 * terms are *recomputed* from the recorded wire-byte counts at the
 * scaled bandwidth (transferTicks rounds up, so scaling recorded times
 * would drift), remote round-trips are rebuilt from the recorded batch
 * counts, and RWQ drain stalls divide by the drain-speed factor. The
 * kernel terms come from the same KernelTiming::time() the runner
 * calls. At unit factors the prediction of a single-node run
 * reproduces the recorded end-to-end time exactly, tick for tick; on a
 * multi-node run the replay times every link at the intra-node rate,
 * so node-uplink serialization is missing from it.
 *
 * validateWhatIf closes the loop: it runs the workload once with
 * causal tracing on, predicts, then re-runs for real with the scaled
 * configuration and reports the prediction error.
 */

#ifndef GPS_OBS_CAUSAL_WHATIF_HH
#define GPS_OBS_CAUSAL_WHATIF_HH

#include <string>

#include "api/runner.hh"
#include "obs/causal/causal.hh"

namespace gps
{

/** Resource scalings to hypothesize, relative to the recorded run. */
struct WhatIfSpec
{
    /** Link-bandwidth multiplier (2.0 = links twice as fast). */
    double linkBw = 1.0;

    /** RWQ drain-speed multiplier (halves saturation stall charges). */
    double rwqDrain = 1.0;

    bool identity() const { return linkBw == 1.0 && rwqDrain == 1.0; }
};

/**
 * Parse "link_bw=2x,rwq_drain=1.5" (the 'x' suffix is optional).
 * @return false with @p error set on unknown keys or bad factors.
 */
bool parseWhatIfSpec(const std::string& text, WhatIfSpec& out,
                     std::string& error);

std::string to_string(const WhatIfSpec& spec);

/** Prediction from one recorded graph. */
struct WhatIfPrediction
{
    WhatIfSpec spec;

    /** Recorded end-to-end time replayed at unit factors. */
    Tick baseTime = 0;

    /** Predicted end-to-end time under the spec's factors. */
    Tick predictedTime = 0;

    /** baseTime / predictedTime (1.0 when either is zero). */
    double speedup = 1.0;
};

/** Replay the graph under @p spec (pure function of the report). */
WhatIfPrediction predictWhatIf(const CausalReport& report,
                               const WhatIfSpec& spec);

/** Fold the spec's factors into a run configuration for a real run. */
void applyWhatIf(RunConfig& config, const WhatIfSpec& spec);

/** Prediction versus an actual re-run. */
struct WhatIfValidation
{
    WhatIfPrediction prediction;

    /** Graph recorded by the traced base run (for export/inspection). */
    CausalReport traced;

    /** Measured end-to-end time of the scaled re-run. */
    Tick actualTime = 0;

    /** baseTime / actualTime. */
    double actualSpeedup = 1.0;

    /** |predicted - actual| / actual, in percent. */
    double errorPct = 0.0;
};

/**
 * Run @p workload_name under @p base with causal tracing enabled,
 * predict the effect of @p spec, then re-run with the scaled
 * configuration and measure the prediction error.
 */
WhatIfValidation validateWhatIf(const std::string& workload_name,
                                const RunConfig& base,
                                const WhatIfSpec& spec);

} // namespace gps

#endif // GPS_OBS_CAUSAL_WHATIF_HH
