/**
 * @file
 * Tests for causal critical-path tracing and what-if prediction: spec
 * parsing, identity-replay exactness, critical-path accounting,
 * disabled-path byte-identity, bounded recording, and closed-loop
 * validation of scaled-resource predictions against real re-runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "api/result_export.hh"
#include "api/runner.hh"
#include "apps/app_common.hh"
#include "common/logging.hh"
#include "obs/causal/whatif.hh"
#include "obs/observability.hh"

namespace gps
{
namespace
{

/** Small fig11-style config: 4 GPUs on PCIe-class links. */
RunConfig
causalConfig()
{
    RunConfig config;
    config.system.numGpus = 4;
    config.scale = 0.0625;
    config.paradigm = ParadigmKind::Gps;
    return config;
}

TEST(WhatIfSpec, ParsesFactorsWithOptionalSuffix)
{
    WhatIfSpec spec;
    std::string error;
    ASSERT_TRUE(parseWhatIfSpec("link_bw=2x,rwq_drain=1.5", spec, error))
        << error;
    EXPECT_DOUBLE_EQ(spec.linkBw, 2.0);
    EXPECT_DOUBLE_EQ(spec.rwqDrain, 1.5);
    EXPECT_FALSE(spec.identity());

    WhatIfSpec bare;
    ASSERT_TRUE(parseWhatIfSpec("link_bw=0.5", bare, error)) << error;
    EXPECT_DOUBLE_EQ(bare.linkBw, 0.5);
    EXPECT_DOUBLE_EQ(bare.rwqDrain, 1.0);

    EXPECT_NE(to_string(spec).find("link_bw=2"), std::string::npos);
}

TEST(WhatIfSpec, RejectsUnknownKeysAndBadFactors)
{
    WhatIfSpec spec;
    std::string error;
    EXPECT_FALSE(parseWhatIfSpec("dram_bw=2x", spec, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseWhatIfSpec("link_bw=0", spec, error));
    EXPECT_FALSE(parseWhatIfSpec("link_bw=-1", spec, error));
    EXPECT_FALSE(parseWhatIfSpec("link_bw=fast", spec, error));

    // An empty spec is the identity hypothesis, not an error.
    WhatIfSpec empty;
    ASSERT_TRUE(parseWhatIfSpec("", empty, error)) << error;
    EXPECT_TRUE(empty.identity());
}

TEST(Causal, TracingDoesNotPerturbTheRun)
{
    const RunResult plain = runWorkload("Jacobi", causalConfig());
    RunConfig traced = causalConfig();
    traced.obs.causal = true;
    const RunResult observed = runWorkload("Jacobi", traced);

    EXPECT_EQ(plain.obs, nullptr);
    ASSERT_NE(observed.obs, nullptr);
    EXPECT_TRUE(observed.obs->hasCausal);
    // The full exported result (counters, times, stats) must be
    // byte-identical with tracing on.
    EXPECT_EQ(resultToJson(plain, true), resultToJson(observed, true));
}

TEST(Causal, RecordsPhasesIterationsAndEdges)
{
    RunConfig config = causalConfig();
    config.obs.causal = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    const CausalReport& report = result.obs->causal;

    EXPECT_FALSE(report.phases.empty());
    EXPECT_FALSE(report.iterations.empty());
    EXPECT_EQ(report.droppedPhases, 0u);
    EXPECT_DOUBLE_EQ(report.model.wqDrainScale, 1.0);
    EXPECT_EQ(report.model.numGpus, 4u);
    // Every phase carries one kernel record per participating GPU and
    // per-GPU barrier wire bytes.
    for (const CausalPhase& phase : report.phases) {
        EXPECT_FALSE(phase.kernels.empty()) << phase.name;
        EXPECT_EQ(phase.barrierEgress.size(), 4u);
        EXPECT_EQ(phase.barrierIngress.size(), 4u);
        EXPECT_GT(phase.phaseTime, 0u) << phase.name;
    }
    // Kernel completions feed barrier edges; GPS traffic crosses the
    // link into remote write queues.
    const auto edge = [&report](CausalEdge kind) {
        return report.edges[static_cast<std::size_t>(kind)];
    };
    EXPECT_GT(edge(CausalEdge::KernelToPhase), 0u);
    EXPECT_GT(edge(CausalEdge::LinkToRwqInsert), 0u);
    EXPECT_GT(edge(CausalEdge::RwqInsertToDrain), 0u);
}

/**
 * One-phase ring: each GPU loads its upstream neighbor's segment and
 * stores its own. The phase name contains ".kernel_done." on purpose.
 */
class KernelDoneNamedWorkload : public Workload
{
  public:
    std::string name() const override { return "KernelDoneNamed"; }
    std::string description() const override { return "ring"; }
    std::string commPattern() const override { return "Peer-to-peer"; }
    std::size_t effectiveIterations() const override { return 100; }

    void
    setup(WorkloadContext& ctx) override
    {
        gpus_ = ctx.numGpus();
        buf_ = ctx.allocShared(gpus_ * lines_ * 128, "ring.buf");
    }

    std::vector<Phase>
    iteration(std::size_t iter, WorkloadContext& ctx) override
    {
        (void)iter;
        (void)ctx;
        Phase phase;
        phase.name = "ring.kernel_done.step";
        for (std::size_t g = 0; g < gpus_; ++g) {
            const Addr own = buf_ + g * lines_ * 128;
            const Addr upstream =
                buf_ + ((g + gpus_ - 1) % gpus_) * lines_ * 128;
            std::vector<apps::Group> groups;
            groups.push_back(apps::Group{{
                apps::Burst{upstream, lines_, 128, AccessType::Load, 128,
                            Scope::Weak},
                apps::Burst{own, lines_, 128, AccessType::Store, 128,
                            Scope::Weak},
            }});
            KernelLaunch kernel;
            kernel.gpu = static_cast<GpuId>(g);
            kernel.name = phase.name;
            kernel.computeInstrs = lines_ * 32;
            kernel.stream = apps::makeGroupStream(std::move(groups));
            phase.kernels.push_back(std::move(kernel));
        }
        std::vector<Phase> phases;
        phases.push_back(std::move(phase));
        return phases;
    }

  private:
    static constexpr std::uint64_t lines_ = 256;
    std::size_t gpus_ = 0;
    Addr buf_ = 0;
};

TEST(Causal, KernelEdgesMatchRecordedKernelsWhateverThePhaseName)
{
    RunConfig config = causalConfig();
    config.obs.causal = true;
    KernelDoneNamedWorkload workload;
    const RunResult result = Runner(config).run(workload);
    ASSERT_NE(result.obs, nullptr);
    const CausalReport& report = result.obs->causal;
    std::uint64_t kernels = 0;
    for (const CausalPhase& phase : report.phases)
        kernels += phase.kernels.size();
    // Five simulated iterations of one phase on four GPUs.
    EXPECT_EQ(kernels, 20u);
    EXPECT_EQ(report.edges[static_cast<std::size_t>(
                  CausalEdge::KernelToPhase)],
              kernels);
}

TEST(Causal, IdentityPredictionReproducesTheRunExactly)
{
    RunConfig config = causalConfig();
    config.obs.causal = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);

    const WhatIfPrediction pred =
        predictWhatIf(result.obs->causal, WhatIfSpec{});
    EXPECT_EQ(pred.baseTime, result.totalTime);
    EXPECT_EQ(pred.predictedTime, result.totalTime);
    EXPECT_DOUBLE_EQ(pred.speedup, 1.0);
}

TEST(Causal, CriticalPathCoversTheSimulatedWindow)
{
    RunConfig config = causalConfig();
    config.obs.causal = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);

    const CriticalPathReport path =
        analyzeCriticalPath(result.obs->causal);
    ASSERT_FALSE(path.segments.empty());
    ASSERT_FALSE(path.laneTicks.empty());

    Tick segment_sum = 0;
    for (const CriticalSegment& seg : path.segments)
        segment_sum += seg.ticks;
    EXPECT_EQ(segment_sum, path.totalTicks);

    Tick lane_sum = 0;
    for (const auto& [lane, ticks] : path.laneTicks)
        lane_sum += ticks;
    EXPECT_EQ(lane_sum, path.totalTicks);

    // The window equals the recorded iteration span.
    const CausalReport& report = result.obs->causal;
    EXPECT_EQ(path.totalTicks, report.iterations.back().end -
                                   report.iterations.front().start);
}

TEST(Causal, JsonExportIsWellFormedAndComplete)
{
    RunConfig config = causalConfig();
    config.obs.causal = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);

    const std::string json = causalToJson(result.obs->causal);
    std::int64_t depth = 0;
    bool in_string = false, escaped = false;
    for (const char c : json) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
    EXPECT_NE(json.find("\"phases\":["), std::string::npos);
    EXPECT_NE(json.find("\"critical_path\":"), std::string::npos);
    EXPECT_NE(json.find("\"edges\":"), std::string::npos);
    EXPECT_NE(json.find("kernel_to_phase"), std::string::npos);
}

TEST(Causal, FlowArrowsLandOnTheTimeline)
{
    RunConfig config = causalConfig();
    config.obs.causal = true;
    config.obs.timeline = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);

    std::uint64_t starts = 0, finishes = 0;
    for (const TraceEvent& ev : result.obs->timeline) {
        if (ev.cat != "causal")
            continue;
        if (ev.ph == 's')
            ++starts;
        if (ev.ph == 'f') {
            ++finishes;
            EXPECT_EQ(ev.tid, TimelineRecorder::systemTid);
        }
    }
    EXPECT_GT(starts, 0u);
    EXPECT_EQ(starts, finishes);
    // The exported trace carries flow bindings.
    const std::string json = timelineToJson(*result.obs);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(Causal, PhaseCapCountsDrops)
{
    RunConfig config = causalConfig();
    config.obs.causal = true;
    config.obs.maxCausalPhases = 2;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    const CausalReport& report = result.obs->causal;
    EXPECT_EQ(report.phases.size(), 2u);
    EXPECT_GT(report.droppedPhases, 0u);
    EXPECT_NE(causalToJson(report).find("\"dropped_phases\":"),
              std::string::npos);
}

TEST(Causal, UnitScalesAreByteIdentical)
{
    const RunResult plain = runWorkload("Jacobi", causalConfig());
    RunConfig scaled = causalConfig();
    scaled.system.linkBandwidthScale = 1.0;
    scaled.system.gps.wqDrainScale = 1.0;
    const RunResult same = runWorkload("Jacobi", scaled);
    EXPECT_EQ(resultToJson(plain, true), resultToJson(same, true));
}

TEST(Causal, LinkBandwidthScaleChangesTheRun)
{
    const RunResult base = runWorkload("Jacobi", causalConfig());
    RunConfig fast = causalConfig();
    fast.system.linkBandwidthScale = 2.0;
    const RunResult faster = runWorkload("Jacobi", fast);
    EXPECT_LT(faster.totalTime, base.totalTime);
}

TEST(WhatIf, LinkBandwidthPredictionWithinTolerance)
{
    WhatIfSpec spec;
    spec.linkBw = 2.0;
    const WhatIfValidation v =
        validateWhatIf("Jacobi", causalConfig(), spec);
    EXPECT_GT(v.prediction.speedup, 1.0);
    EXPECT_LE(v.errorPct, 10.0)
        << "predicted " << v.prediction.predictedTime << " actual "
        << v.actualTime;
}

TEST(WhatIf, RwqDrainPredictionUnderSaturation)
{
    RunConfig config = causalConfig();
    config.faultPlan.addSpec("wq:saturate@0:*");
    config.faultPlan.sort();
    WhatIfSpec spec;
    spec.rwqDrain = 2.0;
    const WhatIfValidation v = validateWhatIf("Jacobi", config, spec);
    EXPECT_LE(v.errorPct, 10.0)
        << "predicted " << v.prediction.predictedTime << " actual "
        << v.actualTime;
}

TEST(WhatIf, SlowerLinksPredictSlowdownWithinTolerance)
{
    WhatIfSpec spec;
    spec.linkBw = 0.5;
    const WhatIfValidation v =
        validateWhatIf("Jacobi", causalConfig(), spec);
    EXPECT_LT(v.prediction.speedup, 1.0);
    EXPECT_LE(v.errorPct, 10.0)
        << "predicted " << v.prediction.predictedTime << " actual "
        << v.actualTime;
}

/** Warn lines captured through the detail::setLogSink hook. */
std::mutex warnedMutex;
std::vector<std::string> warned;

void
captureWarning(const std::string& line)
{
    const std::lock_guard<std::mutex> lock(warnedMutex);
    warned.push_back(line);
}

/** validateWhatIf with its warn lines captured into @p lines. */
WhatIfValidation
validateCapturingWarnings(const std::string& app, const RunConfig& config,
                          const WhatIfSpec& spec,
                          std::vector<std::string>& lines)
{
    warned.clear();
    detail::setLogSink(&captureWarning);
    const WhatIfValidation v = validateWhatIf(app, config, spec);
    detail::setLogSink(nullptr);
    lines = warned;
    return v;
}

TEST(WhatIf, PartialReplayWarningNamesDroppedPhases)
{
    RunConfig config = causalConfig();
    config.obs.maxCausalPhases = 2;
    std::vector<std::string> lines;
    validateCapturingWarnings("Jacobi", config, WhatIfSpec{}, lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("phases were dropped past the cap"),
              std::string::npos)
        << lines[0];
}

TEST(WhatIf, MultiNodeReplayWarningNamesTheNodeTier)
{
    // No phase is dropped here: the replay times every link at the
    // intra-node rate and misses the uplink serialization.
    RunConfig config;
    config.system.numGpus = 16;
    config.system.numNodes = 2;
    config.scale = 0.25;
    config.paradigm = ParadigmKind::Memcpy;
    WhatIfSpec spec;
    spec.linkBw = 2.0;
    std::vector<std::string> lines;
    const WhatIfValidation v =
        validateCapturingWarnings("ALS", config, spec, lines);
    EXPECT_EQ(v.traced.droppedPhases, 0u);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].find("dropped"), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("node-uplink"), std::string::npos)
        << lines[0];
}

} // namespace
} // namespace gps
