#include "obs/observability.hh"

#include "common/json.hh"

namespace gps
{

Observability::Observability(const ObsConfig& config)
    : config_(config)
{
    if (config_.timeline)
        recorder_ =
            std::make_unique<TimelineRecorder>(config_.maxTimelineEvents);
    if (config_.profile)
        profile_ = std::make_unique<ProfileCollector>(
            config_.profilePagesPerBucket, config_.profileTopN);
    if (config_.causal)
        causal_ =
            std::make_unique<CausalRecorder>(config_.maxCausalPhases);
}

void
Observability::startSampling(Tick start)
{
    if (!config_.metrics || sampler_)
        return;
    sampler_ = std::make_unique<Sampler>(registry_, config_.sampleEvery);
    sampler_->start(start);
}

namespace
{

/**
 * Draw one Perfetto flow arrow per recorded phase, from the completion
 * of the phase-time-defining kernel (CausalPhase::winner)
 * to the phase boundary on the system track.
 */
void
emitCriticalFlows(const CausalReport& causal, TimelineRecorder& recorder)
{
    std::uint64_t flow_id = 0;
    for (const CausalPhase& phase : causal.phases) {
        ++flow_id;
        const KernelTiming* winner = phase.winner();
        if (winner == nullptr)
            continue;
        const Tick done =
            phase.start + phase.prefetchTime + winner->gpuTime;
        recorder.flow(static_cast<int>(winner->gpu), "critical",
                      "causal", done, flow_id, true);
        recorder.flow(TimelineRecorder::systemTid, "critical", "causal",
                      phase.start + phase.phaseTime, flow_id, false);
    }
}

} // namespace

ObsReport
Observability::finalize(Tick end)
{
    ObsReport report;
    if (causal_ && recorder_)
        emitCriticalFlows(causal_->data(), *recorder_);
    if (config_.metrics) {
        report.hasMetrics = true;
        if (sampler_ == nullptr)
            startSampling(end);
        sampler_->finish(end);
        report.finals = registry_.snapshot();
        report.sampleTicks = sampler_->sampleTicks();
        report.seriesColumns = sampler_->columns();
    }
    if (recorder_) {
        report.hasTimeline = true;
        report.timeline = recorder_->events();
        report.timelineTracks = recorder_->trackNames();
        report.timelineDropped = recorder_->dropped();
    }
    if (profile_) {
        report.hasProfile = true;
        report.profile = profile_->finalize();
    }
    if (causal_) {
        report.hasCausal = true;
        report.causal = causal_->finalize();
    }
    return report;
}

void
Observability::transferState(snapshot::StateIO& io)
{
    io.section("obs");
    bool has_samples = sampler_ != nullptr;
    io.b(has_samples);
    if (has_samples) {
        if (io.loading() && !config_.metrics)
            throw snapshot::SnapshotError(
                "snapshot carries metric samples but metrics "
                "collection is off");
        if (!sampler_)
            sampler_ =
                std::make_unique<Sampler>(registry_, config_.sampleEvery);
        sampler_->transferState(io);
    }
    bool has_timeline = recorder_ != nullptr;
    io.b(has_timeline);
    if (has_timeline) {
        if (!recorder_)
            throw snapshot::SnapshotError(
                "snapshot carries a timeline but timeline recording "
                "is off");
        recorder_->transferState(io);
    }
    bool has_causal = causal_ != nullptr;
    io.b(has_causal);
    if (has_causal) {
        if (!causal_)
            throw snapshot::SnapshotError(
                "snapshot carries a causal graph but causal tracing "
                "is off");
        causal_->transferState(io);
    }
}

std::string
metricsToJson(const ObsReport& report)
{
    JsonWriter w;
    w.beginObject();
    w.key("metrics").beginArray();
    for (const MetricValue& m : report.finals) {
        w.beginObject();
        w.field("name", m.name);
        w.field("kind", to_string(m.kind));
        w.field("unit", m.unit);
        w.field("value", m.value);
        w.endObject();
    }
    w.endArray();
    w.key("samples").beginObject();
    w.key("ticks").beginArray();
    for (const Tick t : report.sampleTicks)
        w.value(static_cast<std::uint64_t>(t));
    w.endArray();
    w.key("series").beginObject();
    for (std::size_t m = 0; m < report.seriesColumns.size(); ++m) {
        w.key(report.finals[m].name).beginArray();
        for (const double v : report.seriesColumns[m])
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.endObject();
    w.field("timeline_dropped", report.timelineDropped);
    w.endObject();
    return w.str();
}

std::string
timelineToJson(const ObsReport& report)
{
    return timelineToJson(report.timeline, report.timelineTracks,
                          report.timelineDropped);
}

std::string
profileToJson(const ObsReport& report)
{
    return profileToJson(report.profile);
}

} // namespace gps
