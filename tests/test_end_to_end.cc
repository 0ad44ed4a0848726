/**
 * @file
 * End-to-end smoke matrix: every bundled workload under every paradigm
 * at a small scale, checking the invariants the paper's evaluation
 * rests on (valid results, traffic only where expected, infinite
 * bandwidth as the performance bound).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "api/result_export.hh"
#include "api/runner.hh"
#include "common/crc32.hh"
#include "obs/observability.hh"

namespace gps
{
namespace
{

constexpr double smokeScale = 0.0625;

using Cell = std::tuple<std::string, ParadigmKind>;

class EndToEnd : public ::testing::TestWithParam<Cell>
{
  protected:
    static RunConfig
    config(ParadigmKind paradigm, std::size_t gpus = 4)
    {
        RunConfig config;
        config.system.numGpus = gpus;
        config.scale = smokeScale;
        config.paradigm = paradigm;
        return config;
    }
};

TEST_P(EndToEnd, RunsAndProducesSaneResults)
{
    const auto& [app, paradigm] = GetParam();
    const RunResult result = runWorkload(app, config(paradigm));
    EXPECT_GT(result.totalTime, 0u);
    EXPECT_GT(result.totals.accesses, 0u);
    EXPECT_EQ(result.paradigm, to_string(paradigm));

    switch (paradigm) {
      case ParadigmKind::InfiniteBw:
        EXPECT_EQ(result.interconnectBytes, 0u);
        break;
      case ParadigmKind::Um:
      case ParadigmKind::UmHints:
        EXPECT_GT(result.totals.pageFaults, 0u) << app;
        break;
      case ParadigmKind::Memcpy:
        EXPECT_EQ(result.totals.pageFaults, 0u);
        EXPECT_GT(result.interconnectBytes, 0u);
        break;
      case ParadigmKind::Gps:
        EXPECT_TRUE(result.hasSubscriberHist);
        EXPECT_EQ(result.totals.pageFaults, result.totals.sysCollapses);
        break;
      case ParadigmKind::Rdl:
        EXPECT_EQ(result.totals.pageFaults, 0u);
        break;
    }
}

std::vector<Cell>
allCells()
{
    std::vector<Cell> cells;
    for (const std::string& app : workloadNames()) {
        for (const ParadigmKind paradigm : allParadigms())
            cells.emplace_back(app, paradigm);
    }
    return cells;
}

std::string
cellName(const ::testing::TestParamInfo<Cell>& info)
{
    std::string name = std::get<0>(info.param) + "_" +
                       to_string(std::get<1>(info.param));
    for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EndToEnd,
                         ::testing::ValuesIn(allCells()), cellName);

TEST(EndToEndInvariants, InfiniteBandwidthBoundsGpsPerApp)
{
    for (const std::string& app : workloadNames()) {
        RunConfig config;
        config.system.numGpus = 4;
        config.scale = smokeScale;
        config.paradigm = ParadigmKind::Gps;
        const RunResult gps = runWorkload(app, config);
        config.paradigm = ParadigmKind::InfiniteBw;
        const RunResult infinite = runWorkload(app, config);
        EXPECT_LE(infinite.totalTime,
                  gps.totalTime + gps.totalTime / 10)
            << app;
    }
}

TEST(EndToEndInvariants, SixteenGpuSystemRuns)
{
    RunConfig config;
    config.system.numGpus = 16;
    config.system.interconnect = InterconnectKind::Pcie6;
    config.scale = smokeScale;
    config.paradigm = ParadigmKind::Gps;
    const RunResult result = runWorkload("Jacobi", config);
    EXPECT_GT(result.totalTime, 0u);
    EXPECT_EQ(result.numGpus, 16u);
}

TEST(EndToEndInvariants, GpsSubscriptionSavesTrafficOnHaloApps)
{
    RunConfig config;
    config.system.numGpus = 4;
    config.scale = smokeScale;
    config.paradigm = ParadigmKind::Gps;
    const RunResult with_subs = runWorkload("Jacobi", config);
    config.system.gps.autoUnsubscribe = false;
    const RunResult without = runWorkload("Jacobi", config);
    EXPECT_LT(with_subs.interconnectBytes, without.interconnectBytes);
    EXPECT_LE(with_subs.totalTime, without.totalTime);
}

TEST(EndToEndInvariants, FasterInterconnectNeverHurtsGps)
{
    RunConfig config;
    config.system.numGpus = 4;
    config.scale = smokeScale;
    config.paradigm = ParadigmKind::Gps;
    config.system.interconnect = InterconnectKind::Pcie3;
    const RunResult slow = runWorkload("EQWP", config);
    config.system.interconnect = InterconnectKind::Pcie6;
    const RunResult fast = runWorkload("EQWP", config);
    EXPECT_LE(fast.totalTime, slow.totalTime);
}

/**
 * Byte pins for the 16-GPU replays that lean hardest on the per-GPU L2
 * model (Memcpy's barrier invalidations) and on GPS subscriber
 * forwarding (ALS atomics, flat and across two nodes). The snapshot
 * blob carries every L2 line, invalidated ones included, so a change
 * to the cache's internal layout that leaks into its state shows here.
 */
RunConfig
pinnedConfig(ParadigmKind paradigm, std::size_t nodes = 1)
{
    RunConfig config;
    config.system.numGpus = 16;
    config.system.numNodes = nodes;
    config.scale = 0.25;
    config.paradigm = paradigm;
    return config;
}

TEST(EndToEndPins, JacobiMemcpySixteenGpusIsPinned)
{
    RunConfig config = pinnedConfig(ParadigmKind::Memcpy);
    config.snapshotAt = {snapshot::AtKind::Iter, 1};
    config.snapshotSink = std::make_shared<std::string>();
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_FALSE(config.snapshotSink->empty());
    EXPECT_EQ(crc32Of(*config.snapshotSink), 0x29d9b7b6u);

    // The capture must not perturb the run itself.
    const RunResult plain =
        runWorkload("Jacobi", pinnedConfig(ParadigmKind::Memcpy));
    EXPECT_EQ(crc32Of(resultToJson(plain, true)), 0xfe664bc1u);
    EXPECT_EQ(resultToJson(result, true), resultToJson(plain, true));
}

TEST(EndToEndPins, AlsGpsSixteenGpusIsPinned)
{
    const RunResult flat =
        runWorkload("ALS", pinnedConfig(ParadigmKind::Gps));
    EXPECT_EQ(crc32Of(resultToJson(flat, true)), 0x7e350959u);

    const RunResult nodes =
        runWorkload("ALS", pinnedConfig(ParadigmKind::Gps, 2));
    EXPECT_EQ(crc32Of(resultToJson(nodes, true)), 0x1fe6a26au);
}

/**
 * Capture @p app under @p config at @p at, then restore from the blob.
 * Returns the snapshot bytes; the restored run must reproduce the
 * uninterrupted run's result JSON and, when observability is on, its
 * metrics, timeline and causal outputs byte for byte.
 */
std::string
captureAndRestore(const std::string& app, RunConfig config,
                  snapshot::SnapshotPoint at)
{
    config.snapshotAt = at;
    config.snapshotSink = std::make_shared<std::string>();
    const RunResult cold = runWorkload(app, config);
    const std::shared_ptr<std::string> blob = config.snapshotSink;
    EXPECT_FALSE(blob->empty()) << app;

    config.snapshotAt = {};
    config.snapshotSink = nullptr;
    config.restoreBlob = blob;
    const RunResult restored = runWorkload(app, config);
    EXPECT_EQ(resultToJson(restored, true), resultToJson(cold, true))
        << app;
    if (cold.obs != nullptr) {
        EXPECT_NE(restored.obs, nullptr);
        if (restored.obs != nullptr) {
            EXPECT_EQ(metricsToJson(*restored.obs),
                      metricsToJson(*cold.obs));
            EXPECT_EQ(timelineToJson(*restored.obs),
                      timelineToJson(*cold.obs));
            EXPECT_EQ(causalToJson(restored.obs->causal),
                      causalToJson(cold.obs->causal));
        }
    }
    return *blob;
}

/**
 * GPSSNAP pins for the state the Jacobi/Memcpy pin never reaches: the
 * two-node topology, the fault engine and its RNG, the GPS table,
 * subscriptions, tracker, write queues, GPS-TUs and the degraded and
 * stall ledgers (ALS/GPS with faults), the sampler, timeline and causal
 * recorders (Jacobi/GPS observed), and the UM and RDL dirty-page sets.
 */
TEST(EndToEndPins, FaultedTwoNodeAlsGpsSnapshotIsPinned)
{
    RunConfig config = pinnedConfig(ParadigmKind::Gps, 2);
    config.scale = 0.125;
    config.faultPlan.addSpec("link:degrade@0:0-1:0.5");
    config.faultPlan.addSpec("wq:saturate@0:2");
    config.faultPlan.addSpec("page:retire@0:gpu3:16");
    config.faultPlan.sort();
    const std::string blob =
        captureAndRestore("ALS", config, {snapshot::AtKind::Profile, 0});
    EXPECT_EQ(crc32Of(blob), 0x6c54aee3u);
}

TEST(EndToEndPins, ObservedJacobiGpsSnapshotIsPinned)
{
    RunConfig config;
    config.system.numGpus = 4;
    config.scale = 0.125;
    config.paradigm = ParadigmKind::Gps;
    config.obs.metrics = true;
    config.obs.sampleEvery = 1000000;
    config.obs.timeline = true;
    config.obs.causal = true;
    const std::string blob = captureAndRestore(
        "Jacobi", config, {snapshot::AtKind::Phase, 3});
    EXPECT_EQ(crc32Of(blob), 0x7a69ba1eu);
}

TEST(EndToEndPins, UmAndRdlSnapshotsArePinned)
{
    RunConfig config;
    config.system.numGpus = 4;
    config.scale = 0.125;
    config.paradigm = ParadigmKind::Um;
    EXPECT_EQ(crc32Of(captureAndRestore("Pagerank", config,
                                        {snapshot::AtKind::Phase, 1})),
              0xca7b7ffbu);
    config.paradigm = ParadigmKind::Rdl;
    EXPECT_EQ(crc32Of(captureAndRestore("SSSP", config,
                                        {snapshot::AtKind::Phase, 1})),
              0x72d207f3u);
}

} // namespace
} // namespace gps
