#include "obs/causal/whatif.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/logging.hh"

namespace gps
{

bool
parseWhatIfSpec(const std::string& text, WhatIfSpec& out,
                std::string& error)
{
    out = WhatIfSpec{};
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "what-if term '" + item + "' is not key=factor";
            return false;
        }
        const std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        if (!val.empty() && (val.back() == 'x' || val.back() == 'X'))
            val.pop_back();
        char* end = nullptr;
        const double factor = std::strtod(val.c_str(), &end);
        if (val.empty() || end == nullptr || *end != '\0' ||
            !std::isfinite(factor) || factor <= 0.0) {
            error = "what-if factor '" + item.substr(eq + 1) +
                    "' is not a positive number";
            return false;
        }
        if (key == "link_bw") {
            out.linkBw = factor;
        } else if (key == "rwq_drain") {
            out.rwqDrain = factor;
        } else {
            error = "unknown what-if key '" + key +
                    "' (expected link_bw or rwq_drain)";
            return false;
        }
    }
    return true;
}

std::string
to_string(const WhatIfSpec& spec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "link_bw=%gx,rwq_drain=%gx",
                  spec.linkBw, spec.rwqDrain);
    return buf;
}

namespace
{

/** One phase's end-to-end time under scaled resources. */
Tick
predictPhase(const CausalModel& m, const CausalPhase& ph,
             const WhatIfSpec& spec)
{
    TimingConstants link = m;
    link.linkBandwidth *= spec.linkBw;

    Tick slowest = 0;
    for (const KernelTiming& k : ph.kernels)
        slowest = std::max({slowest, k.time(link, spec.rwqDrain).kernel,
                            link.linkTime(k.egressBytes),
                            link.linkTime(k.ingressBytes)});

    Tick barrier_wire = 0;
    for (const auto* bytes : {&ph.barrierEgress, &ph.barrierIngress})
        for (const std::uint64_t b : *bytes)
            barrier_wire = std::max(barrier_wire, link.linkTime(b));
    return ph.prefetchTime + slowest + barrier_wire +
           ph.barrierOverhead;
}

/** End-to-end time under @p spec, extrapolated as the runner does. */
Tick
predictTotal(const CausalReport& report, const WhatIfSpec& spec)
{
    // Per-iteration predicted phase sum plus the recorded residual
    // (window time not covered by recorded phases; normally zero).
    std::map<std::uint64_t, Tick> predicted;
    std::map<std::uint64_t, Tick> recorded;
    for (const CausalPhase& ph : report.phases) {
        predicted[ph.iter] += predictPhase(report.model, ph, spec);
        recorded[ph.iter] += ph.phaseTime;
    }

    std::vector<Tick> iter_time;
    iter_time.reserve(report.iterations.size());
    for (const CausalIteration& it : report.iterations) {
        const Tick window = it.end - it.start;
        const Tick rec = recorded[it.iter];
        iter_time.push_back(predicted[it.iter] +
                            (window > rec ? window - rec : 0));
    }
    return (iter_time.empty() ? 0 : iter_time.front()) +
           static_cast<Tick>(steadyStateExtrapolation(
               iter_time, report.model.effectiveIterations));
}

} // namespace

WhatIfPrediction
predictWhatIf(const CausalReport& report, const WhatIfSpec& spec)
{
    WhatIfPrediction out;
    out.spec = spec;
    out.baseTime = predictTotal(report, WhatIfSpec{});
    out.predictedTime = predictTotal(report, spec);
    out.speedup = out.baseTime == 0 || out.predictedTime == 0
                      ? 1.0
                      : static_cast<double>(out.baseTime) /
                            static_cast<double>(out.predictedTime);
    return out;
}

void
applyWhatIf(RunConfig& config, const WhatIfSpec& spec)
{
    config.system.linkBandwidthScale *= spec.linkBw;
    config.system.gps.wqDrainScale *= spec.rwqDrain;
}

WhatIfValidation
validateWhatIf(const std::string& workload_name, const RunConfig& base,
               const WhatIfSpec& spec)
{
    RunConfig traced = base;
    traced.obs.causal = true;
    const RunResult base_result = runWorkload(workload_name, traced);
    gps_assert(base_result.obs != nullptr && base_result.obs->hasCausal,
               "what-if base run produced no causal graph");

    WhatIfValidation out;
    out.traced = base_result.obs->causal;
    out.prediction = predictWhatIf(base_result.obs->causal, spec);
    // Dropped phases replay at their recorded times (as residual), so
    // they cover the window but do not scale.
    if (out.traced.droppedPhases > 0)
        gps_warn(out.traced.droppedPhases,
                 " causal phases were dropped past the cap and replay "
                 "unscaled; predictions are partial");
    if (out.prediction.baseTime != base_result.totalTime)
        gps_warn("causal replay covers ", out.prediction.baseTime, " of ",
                 base_result.totalTime,
                 " recorded ticks: it times links per GPU and does not "
                 "see node-uplink serialization; predictions for "
                 "multi-node runs are approximate");

    RunConfig scaled = base;
    scaled.obs = ObsConfig{};
    applyWhatIf(scaled, spec);
    const RunResult actual = runWorkload(workload_name, scaled);
    out.actualTime = actual.totalTime;
    out.actualSpeedup =
        actual.totalTime == 0
            ? 1.0
            : static_cast<double>(out.prediction.baseTime) /
                  static_cast<double>(actual.totalTime);
    out.errorPct =
        actual.totalTime == 0
            ? 0.0
            : std::fabs(static_cast<double>(out.prediction.predictedTime) -
                        static_cast<double>(actual.totalTime)) /
                  static_cast<double>(actual.totalTime) * 100.0;
    return out;
}

} // namespace gps
