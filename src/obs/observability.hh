/**
 * @file
 * Per-run observability bundle: configuration, live collectors, and the
 * plain-data report that survives the run.
 *
 * The live objects (MetricRegistry with component-capturing getters,
 * TimelineRecorder, Sampler) are owned by the Runner for the duration of
 * one run and must not outlive the MultiGpuSystem they instrument.
 * finalize() distills them into an ObsReport — values only, no pointers
 * — which rides on the RunResult for export by tools.
 */

#ifndef GPS_OBS_OBSERVABILITY_HH
#define GPS_OBS_OBSERVABILITY_HH

#include <memory>
#include <string>

#include "common/units.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"

namespace gps
{

/** What to collect during a run. All off by default (zero overhead). */
struct ObsConfig
{
    /** Collect the metric registry (final snapshot + sampled series). */
    bool metrics = false;

    /** Record the simulated-time event timeline. */
    bool timeline = false;

    /**
     * Minimum simulated ticks between metric samples; 0 records only
     * the final end-of-run snapshot.
     */
    Tick sampleEvery = 0;

    /** Timeline event cap (see TimelineRecorder). */
    std::size_t maxTimelineEvents = 1 << 20;

    /** Collect the bottleneck/heat profile (see obs/profile.hh). */
    bool profile = false;

    /** Pages per hot-page heat bucket (1 = exact pages). */
    std::uint64_t profilePagesPerBucket = 1;

    /** Rows kept in the top-N hot-page table. */
    std::size_t profileTopN = 20;

    /** Record the causal dependency graph (see obs/causal/causal.hh). */
    bool causal = false;

    /** Causal phase cap (see CausalRecorder). */
    std::size_t maxCausalPhases = 1 << 16;

    bool
    enabled() const
    {
        return metrics || timeline || profile || causal;
    }
};

/** Plain-data observability output of one run. */
struct ObsReport
{
    bool hasMetrics = false;
    bool hasTimeline = false;

    /** End-of-run value of every registered metric. */
    std::vector<MetricValue> finals;

    /** Sample instants (simulated ticks), increasing. */
    std::vector<Tick> sampleTicks;

    /** seriesColumns[m][s]: finals[m]'s value at sampleTicks[s]. */
    std::vector<std::vector<double>> seriesColumns;

    std::vector<TraceEvent> timeline;
    std::map<int, std::string> timelineTracks;
    std::uint64_t timelineDropped = 0;

    bool hasProfile = false;
    ProfileReport profile;

    bool hasCausal = false;
    CausalReport causal;
};

/** Live collectors for one run. */
class Observability
{
  public:
    explicit Observability(const ObsConfig& config);

    const ObsConfig& config() const { return config_; }

    /** Registry components register into (metrics mode only). */
    MetricRegistry& registry() { return registry_; }

    /** Timeline recorder, or nullptr when timeline is off. */
    TimelineRecorder* recorder() { return recorder_.get(); }

    /** Profile collector, or nullptr when profiling is off. */
    ProfileCollector* profile() { return profile_.get(); }

    /** Causal recorder, or nullptr when causal tracing is off. */
    CausalRecorder* causal() { return causal_.get(); }

    /**
     * Freeze registration and start sampling at @p start. Call after
     * every component has registered; records the initial sample.
     */
    void startSampling(Tick start);

    /** Sampler poll hook; safe before startSampling (no-op). */
    void
    poll(Tick now)
    {
        if (sampler_)
            sampler_->poll(now);
    }

    /** Take the final sample and distill everything into a report. */
    ObsReport finalize(Tick end);

    /**
     * All restart-relevant collector state: sampler series, timeline
     * recorder, causal recorder. The registry itself persists nothing —
     * getters re-register against restored components. Load after
     * components registered their metrics; loading creates the sampler
     * if the snapshot carried one so a later startSampling() keeps the
     * restored series.
     */
    void transferState(snapshot::StateIO& io);

  private:
    ObsConfig config_;
    MetricRegistry registry_;
    std::unique_ptr<TimelineRecorder> recorder_;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<ProfileCollector> profile_;
    std::unique_ptr<CausalRecorder> causal_;
};

/**
 * Serialize a report's metrics as one JSON document: the final value of
 * every metric plus the sampled time series (see docs/observability.md
 * for the schema).
 */
std::string metricsToJson(const ObsReport& report);

/** Serialize a report's timeline as Chrome trace-event JSON. */
std::string timelineToJson(const ObsReport& report);

/** Serialize a report's profile as one JSON document. */
std::string profileToJson(const ObsReport& report);

} // namespace gps

#endif // GPS_OBS_OBSERVABILITY_HH
