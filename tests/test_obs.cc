/**
 * @file
 * Tests for the observability layer: metric registry, sampler, timeline
 * recorder, JSON export, and the disabled-path byte-identity guarantee.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/result_export.hh"
#include "api/runner.hh"
#include "common/crc32.hh"
#include "obs/observability.hh"

namespace gps
{
namespace
{

/** Structural JSON validity: balanced nesting outside string literals. */
void
expectWellFormedJson(const std::string& text)
{
    std::int64_t depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
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
        ASSERT_GE(depth, 0) << text.substr(0, 200);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(MetricRegistry, RegistersAndSnapshots)
{
    std::uint64_t count = 0;
    MetricRegistry reg;
    reg.counter("x.count", "events",
                [&count] { return static_cast<double>(count); });
    reg.gauge("x.rate", "ratio", [] { return 0.25; });
    EXPECT_EQ(reg.size(), 2u);

    count = 7;
    const std::vector<MetricValue> snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "x.count");
    EXPECT_EQ(snap[0].kind, MetricKind::Counter);
    EXPECT_DOUBLE_EQ(snap[0].value, 7.0);
    EXPECT_EQ(snap[1].kind, MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(snap[1].value, 0.25);

    ASSERT_NE(reg.find("x.rate"), nullptr);
    EXPECT_EQ(reg.find("x.rate")->unit, "ratio");
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Sampler, RespectsMinimumSpacing)
{
    std::uint64_t v = 0;
    MetricRegistry reg;
    reg.counter("v", "events", [&v] { return static_cast<double>(v); });
    Sampler sampler(reg, 10);
    sampler.poll(0);
    v = 1;
    sampler.poll(5); // too soon: dropped
    v = 2;
    sampler.poll(12);
    const std::vector<Tick> expect{0, 12};
    EXPECT_EQ(sampler.sampleTicks(), expect);
    ASSERT_EQ(sampler.columns().size(), 1u);
    const std::vector<double> series{0.0, 2.0};
    EXPECT_EQ(sampler.columns()[0], series);
}

TEST(Sampler, FinishRecordsOnceAtRunEnd)
{
    MetricRegistry reg;
    reg.counter("v", "events", [] { return 1.0; });
    Sampler sampler(reg, 10);
    sampler.poll(0);
    sampler.finish(0); // same tick: no duplicate
    EXPECT_EQ(sampler.sampleTicks().size(), 1u);
    sampler.finish(3); // before the period boundary, still recorded
    EXPECT_EQ(sampler.sampleTicks().size(), 2u);
}

TEST(Sampler, ZeroPeriodOnlyRecordsFinal)
{
    MetricRegistry reg;
    reg.counter("v", "events", [] { return 1.0; });
    Sampler sampler(reg, 0);
    sampler.poll(0);
    sampler.poll(100);
    EXPECT_TRUE(sampler.sampleTicks().empty());
    sampler.finish(200);
    EXPECT_EQ(sampler.sampleTicks().size(), 1u);
}

TEST(Sampler, StartRecordsOneBaselineSample)
{
    MetricRegistry reg;
    reg.counter("v", "events", [] { return 1.0; });
    Sampler sampler(reg, 0); // even with periodic sampling off
    sampler.start(5);
    sampler.start(5); // idempotent
    const std::vector<Tick> expect{5};
    EXPECT_EQ(sampler.sampleTicks(), expect);
    sampler.finish(200);
    EXPECT_EQ(sampler.sampleTicks().size(), 2u);
}


TEST(TimelineRecorder, RecordsAndBounds)
{
    TimelineRecorder rec(2);
    rec.nameTrack(0, "gpu0");
    rec.advanceTo(100);
    rec.complete(0, "k", "kernel", 100, 50, {{"accesses", 32.0}});
    rec.instantNow(TimelineRecorder::driverTid, "migrate", "driver");
    rec.instant(0, "dropped", "kernel", 160); // over the cap
    ASSERT_EQ(rec.events().size(), 2u);
    EXPECT_EQ(rec.dropped(), 1u);
    EXPECT_EQ(rec.events()[0].ph, 'X');
    EXPECT_EQ(rec.events()[0].dur, 50u);
    EXPECT_EQ(rec.events()[1].ph, 'i');
    EXPECT_EQ(rec.events()[1].ts, 100u);
}

TEST(TimelineRecorder, JsonIsWellFormedAndLabelsTracks)
{
    TimelineRecorder rec;
    rec.nameTrack(0, "gpu0");
    rec.complete(0, "phase \"a\"", "phase", 0, 10);
    const std::string json =
        timelineToJson(rec.events(), rec.trackNames(), rec.dropped());
    expectWellFormedJson(json);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"gpu0\""), std::string::npos);
    EXPECT_NE(json.find("\\\"a\\\""), std::string::npos);
}

RunConfig
obsConfig()
{
    RunConfig config;
    config.system.numGpus = 2;
    config.scale = 0.0625;
    config.paradigm = ParadigmKind::Gps;
    return config;
}

TEST(Observability, MetricsRunsAlwaysHaveABaselineSample)
{
    // Even with --sample-every 0 the series brackets the run: one
    // sample at the start, one at the end.
    RunConfig config = obsConfig();
    config.obs.metrics = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    ASSERT_EQ(result.obs->sampleTicks.size(), 2u);
    EXPECT_LT(result.obs->sampleTicks.front(),
              result.obs->sampleTicks.back());
}

TEST(Observability, DisabledPathIsByteIdentical)
{
    const RunResult plain = runWorkload("Jacobi", obsConfig());
    RunConfig observed_config = obsConfig();
    observed_config.obs.metrics = true;
    observed_config.obs.timeline = true;
    observed_config.obs.profile = true;
    observed_config.obs.causal = true;
    observed_config.obs.sampleEvery = usToTicks(50.0);
    const RunResult observed = runWorkload("Jacobi", observed_config);

    EXPECT_EQ(plain.obs, nullptr);
    ASSERT_NE(observed.obs, nullptr);
    // Observation must not perturb the simulation: the full exported
    // result (counters, times, stats) is byte-identical either way.
    EXPECT_EQ(resultToJson(plain, true), resultToJson(observed, true));
}

TEST(Observability, MetricsMatchTheStatSet)
{
    RunConfig config = obsConfig();
    config.obs.metrics = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    EXPECT_TRUE(result.obs->hasMetrics);
    EXPECT_FALSE(result.obs->hasTimeline);
    EXPECT_FALSE(result.obs->finals.empty());

    // Spot-check that the registry holds the same counters as
    // RunResult::stats, across all instrumented layers.
    for (const std::string name :
         {"gpu0.l2.hits", "gpu1.tlb.misses", "interconnect.total_bytes",
          "gpu0.remote_write_queue.drains", "driver.migrations",
          "gps.wq_hit_rate"}) {
        bool found = false;
        for (const MetricValue& m : result.obs->finals) {
            if (m.name != name)
                continue;
            found = true;
            EXPECT_DOUBLE_EQ(m.value, result.stats.get(name)) << name;
        }
        EXPECT_TRUE(found) << name;
    }
}

/** Names a component declares for one of the two outputs only. */
bool
metricsOnlyName(std::string_view name)
{
    return name.ends_with(".remote_write_queue.occupancy") ||
           name == "interconnect.path_faults" ||
           name == "interconnect.uplink_faults";
}

bool
statsOnlyName(std::string_view name)
{
    return name.find(".page_table.") != std::string_view::npos ||
           name.starts_with("access_tracker.") ||
           name == "gps_page_table.entries";
}

/** In RunResult::stats only once nonzero; always a metric. */
bool
nonzeroStatName(std::string_view name)
{
    return name.ends_with(".dram.frames_retired") ||
           name == "subscription_manager.replica_retires";
}

TEST(Observability, StatsAndMetricsAgree)
{
    struct Case
    {
        const char* app;
        ParadigmKind paradigm;
        std::size_t nodes;
        std::vector<std::string> faults;
    };
    const std::vector<std::string> degraded = {"link:degrade@0:0-1:0.5",
                                               "wq:saturate@0:2"};
    std::vector<Case> cases;
    for (const ParadigmKind paradigm :
         {ParadigmKind::Gps, ParadigmKind::Memcpy, ParadigmKind::Um}) {
        cases.push_back({"Jacobi", paradigm, 2, {}});
        cases.push_back({"Jacobi", paradigm, 2, degraded});
    }
    cases.push_back(
        {"Pagerank", ParadigmKind::Gps, 1, {"page:retire@0:gpu1:16"}});

    // Every one-sided name seen, to check each declared exception shows.
    std::set<std::string> one_sided;
    bool retired_in_both = false;
    for (const Case& c : cases) {
        RunConfig config;
        config.system.numGpus = 4;
        config.system.numNodes = c.nodes;
        config.scale = 0.0625;
        config.paradigm = c.paradigm;
        config.obs.metrics = true;
        for (const std::string& spec : c.faults)
            config.faultPlan.addSpec(spec);
        config.faultPlan.sort();
        const RunResult result = runWorkload(c.app, config);
        ASSERT_NE(result.obs, nullptr);
        const std::string label =
            std::string(c.app) + "/" + to_string(c.paradigm) + " " +
            std::to_string(c.faults.size()) + " faults";

        std::map<std::string, double> metrics;
        for (const MetricValue& m : result.obs->finals)
            metrics.emplace(m.name, m.value);
        for (const auto& [name, value] : metrics) {
            if (result.stats.has(name)) {
                EXPECT_EQ(value, result.stats.get(name))
                    << label << ": " << name;
                retired_in_both = retired_in_both ||
                                  nonzeroStatName(name);
                continue;
            }
            one_sided.insert(name);
            if (nonzeroStatName(name))
                EXPECT_EQ(value, 0.0) << label << ": " << name;
            else
                EXPECT_TRUE(metricsOnlyName(name))
                    << label << ": metric without a stat: " << name;
        }
        for (const auto& [name, value] : result.stats.all()) {
            // Run totals are not a component's.
            if (metrics.count(name) != 0 || name.starts_with("totals."))
                continue;
            one_sided.insert(name);
            EXPECT_TRUE(statsOnlyName(name))
                << label << ": stat without a metric: " << name;
        }
    }
    EXPECT_TRUE(retired_in_both);
    for (const std::string_view expected :
         {"gpu0.remote_write_queue.occupancy", "interconnect.path_faults",
          "interconnect.uplink_faults", "gpu0.page_table.map_ops",
          "access_tracker.marks", "gps_page_table.entries",
          "gpu0.dram.frames_retired",
          "subscription_manager.replica_retires"})
        EXPECT_EQ(one_sided.count(std::string(expected)), 1u) << expected;
}

TEST(Observability, SamplingProducesMonotonicSeries)
{
    RunConfig config = obsConfig();
    config.obs.metrics = true;
    config.obs.sampleEvery = usToTicks(10.0);
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    const ObsReport& report = *result.obs;
    ASSERT_GE(report.sampleTicks.size(), 2u);
    ASSERT_EQ(report.seriesColumns.size(), report.finals.size());
    for (std::size_t s = 1; s < report.sampleTicks.size(); ++s)
        EXPECT_LT(report.sampleTicks[s - 1], report.sampleTicks[s]);
    for (std::size_t m = 0; m < report.finals.size(); ++m) {
        if (report.finals[m].kind != MetricKind::Counter)
            continue;
        const std::vector<double>& col = report.seriesColumns[m];
        ASSERT_EQ(col.size(), report.sampleTicks.size());
        for (std::size_t s = 1; s < col.size(); ++s)
            EXPECT_LE(col[s - 1], col[s]) << report.finals[m].name;
        EXPECT_DOUBLE_EQ(col.back(), report.finals[m].value);
    }
}

TEST(Observability, TimelineCoversKernelsAndTransfers)
{
    RunConfig config = obsConfig();
    config.obs.timeline = true;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    EXPECT_TRUE(result.obs->hasTimeline);
    EXPECT_EQ(result.obs->timelineDropped, 0u);

    bool kernel = false, phase = false, link = false, drain = false;
    for (const TraceEvent& ev : result.obs->timeline) {
        kernel = kernel || ev.cat == "kernel";
        phase = phase || ev.cat == "phase";
        link = link || ev.cat == "link";
        drain = drain || ev.cat == "rwq";
    }
    EXPECT_TRUE(kernel);
    EXPECT_TRUE(phase);
    EXPECT_TRUE(link);
    EXPECT_TRUE(drain);
    EXPECT_EQ(result.obs->timelineTracks.count(0), 1u);
    EXPECT_EQ(
        result.obs->timelineTracks.count(TimelineRecorder::systemTid),
        1u);
}

TEST(Observability, ExportedJsonIsWellFormed)
{
    RunConfig config = obsConfig();
    config.obs.metrics = true;
    config.obs.timeline = true;
    config.obs.sampleEvery = usToTicks(25.0);
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);

    const std::string metrics = metricsToJson(*result.obs);
    expectWellFormedJson(metrics);
    EXPECT_NE(metrics.find("\"metrics\":["), std::string::npos);
    EXPECT_NE(metrics.find("\"samples\":"), std::string::npos);
    EXPECT_NE(metrics.find("gpu0.l2.hits"), std::string::npos);

    const std::string timeline = timelineToJson(*result.obs);
    expectWellFormedJson(timeline);
    EXPECT_NE(timeline.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(timeline.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
}

TEST(Observability, MetricsJsonCarriesTimelineDroppedCount)
{
    RunConfig config = obsConfig();
    config.obs.metrics = true;
    config.obs.timeline = true;
    config.obs.maxTimelineEvents = 1; // force overflow
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    EXPECT_GT(result.obs->timelineDropped, 0u);
    const std::string json = metricsToJson(*result.obs);
    EXPECT_NE(json.find("\"timeline_dropped\":"), std::string::npos);
    // The count itself, not just the key, must be exported.
    const std::size_t pos = json.find("\"timeline_dropped\":");
    EXPECT_NE(json[pos + std::string("\"timeline_dropped\":").size()],
              '0');
}

TEST(Observability, FaultEventsLandOnTheFaultTrack)
{
    RunConfig config = obsConfig();
    config.obs.timeline = true;
    config.obs.metrics = true;
    config.faultPlan.addSpec("link:degrade@0:0-1:0.5");
    config.faultPlan.sort();
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    bool fault_event = false;
    for (const TraceEvent& ev : result.obs->timeline)
        fault_event = fault_event ||
                      (ev.cat == "fault" &&
                       ev.tid == TimelineRecorder::faultTid);
    EXPECT_TRUE(fault_event);
    bool injected = false;
    for (const MetricValue& m : result.obs->finals)
        if (m.name == "faults.injected") {
            injected = true;
            EXPECT_DOUBLE_EQ(m.value, 1.0);
        }
    EXPECT_TRUE(injected);
}

/**
 * Byte pins for a fully observed, faulted 4-GPU Jacobi/GPS run. The
 * CRCs lock in the sampler's tick placement (kernel completions,
 * barriers, fault injections) and every collector's output.
 */
TEST(Observability, ObservedFaultedRunOutputsArePinned)
{
    RunConfig config;
    config.system.numGpus = 4;
    config.scale = 0.125;
    config.paradigm = ParadigmKind::Gps;
    config.obs.metrics = true;
    config.obs.sampleEvery = 1000000;
    config.obs.timeline = true;
    config.obs.profile = true;
    config.obs.causal = true;
    config.faultPlan.addSpec("link:degrade@0:0-1:0.5");
    config.faultPlan.addSpec("wq:saturate@0:2");
    config.faultPlan.addSpec("wq:restore@50us:2");
    config.faultPlan.sort();
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.obs, nullptr);
    ASSERT_TRUE(result.hasFaultReport);
    EXPECT_EQ(result.faultReport.faultsInjected, 3u);
    EXPECT_EQ(result.obs->sampleTicks.size(), 30u);

    EXPECT_EQ(crc32Of(metricsToJson(*result.obs)), 0xcc5f916eu);
    EXPECT_EQ(crc32Of(timelineToJson(*result.obs)), 0xd7343415u);
    EXPECT_EQ(crc32Of(causalToJson(result.obs->causal)), 0x1b6f886fu);
    EXPECT_EQ(crc32Of(profileToJson(*result.obs)), 0x4d0f0f6eu);
    EXPECT_EQ(crc32Of(resultToJson(result, true)), 0xcdca908eu);
}

// The node tier times link egress/ingress over the uplinks, so the
// per-kernel records of a multi-node run take a path the flat pins
// above do not.
TEST(Observability, ObservedTwoNodeRunOutputsArePinned)
{
    RunConfig config;
    config.system.numGpus = 16;
    config.system.numNodes = 2;
    config.scale = 0.25;
    config.paradigm = ParadigmKind::Memcpy;
    config.obs.timeline = true;
    config.obs.profile = true;
    config.obs.causal = true;
    const RunResult result = runWorkload("ALS", config);
    ASSERT_NE(result.obs, nullptr);

    EXPECT_EQ(crc32Of(causalToJson(result.obs->causal)), 0xdfcc0f32u);
    EXPECT_EQ(crc32Of(profileToJson(*result.obs)), 0x401b828eu);
    EXPECT_EQ(crc32Of(timelineToJson(*result.obs)), 0xf32fd2f3u);
    EXPECT_EQ(crc32Of(resultToJson(result, true)), 0x10924abeu);
}

} // namespace
} // namespace gps
