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

} // namespace
} // namespace gps
