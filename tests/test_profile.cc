/**
 * @file
 * Tests for the bottleneck-attribution profiler: share accounting,
 * hot-page top-N extraction, the end-to-end profile a GPS run produces,
 * and the per-kernel timing record it shares with the causal graph.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "api/runner.hh"
#include "common/json.hh"
#include "obs/observability.hh"

namespace gps
{
namespace
{

TEST(BottleneckProfile, SharesSumToOneAndNameTheLimiter)
{
    BottleneckProfile p;
    p.kernel.tCompute = 100;
    p.kernel.tDram = 300;
    p.tEgress = 50;
    const auto shares = p.shares();
    double sum = 0.0;
    for (const double s : shares)
        sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_STREQ(p.limiter(), "dram");

    BottleneckProfile idle;
    const auto idle_shares = idle.shares();
    EXPECT_DOUBLE_EQ(idle_shares[0], 1.0); // all-compute by convention
    EXPECT_STREQ(idle.limiter(), "compute");
}

TEST(BottleneckProfile, AchievedBandwidthUsesWallTime)
{
    BottleneckProfile p;
    p.kernel.gpuTime = ticksPerSecond; // one simulated second
    p.dramBytes = 5'000'000'000ull;
    p.kernel.egressBytes = 1'000'000'000ull;
    EXPECT_DOUBLE_EQ(p.achievedDramBps(), 5e9);
    EXPECT_DOUBLE_EQ(p.achievedLinkBps(), 1e9);

    BottleneckProfile zero;
    zero.dramBytes = 1;
    EXPECT_DOUBLE_EQ(zero.achievedDramBps(), 0.0);
}

TEST(ProfileCollector, BucketsHeatAndExtractsTopN)
{
    ProfileCollector collector(/*pages_per_bucket=*/4, /*top_n=*/2);
    // Pages 0..3 share bucket 0; page 8 is bucket 2; page 100 bucket 25.
    collector.noteRemoteWriteForward(0, 64);
    collector.noteRemoteWriteForward(3, 64);
    collector.noteRemoteWriteForward(8, 256);
    collector.noteRemoteWriteForward(100, 32);
    collector.noteSubscriptionFlip(1);
    collector.noteMigration(8);
    collector.setRegionResolver(
        [](PageNum vpn) { return "r" + std::to_string(vpn); });

    const ProfileReport report = collector.finalize();
    EXPECT_EQ(report.totalHotBuckets, 3u);
    EXPECT_EQ(report.pagesPerBucket, 4u);
    ASSERT_EQ(report.hotPages.size(), 2u); // top-N truncation
    // Bucket 2 (page 8) leads on rwq_bytes.
    EXPECT_EQ(report.hotPages[0].firstVpn, 8u);
    EXPECT_EQ(report.hotPages[0].heat.rwqBytes, 256u);
    EXPECT_EQ(report.hotPages[0].heat.migrations, 1u);
    EXPECT_EQ(report.hotPages[0].region, "r8");
    EXPECT_EQ(report.hotPages[1].firstVpn, 0u);
    EXPECT_EQ(report.hotPages[1].heat.remoteWritesForwarded, 2u);
    EXPECT_EQ(report.hotPages[1].heat.subFlips, 1u);
}

TEST(ProfileCollector, ReportCarriesTheThreeHistograms)
{
    ProfileCollector collector(1, 20);
    collector.noteRwqOccupancy(3);
    collector.noteRwqOccupancy(9);
    collector.noteRwqDrainResidency(5);
    collector.noteLinkBusy(1000);

    const ProfileReport report = collector.finalize();
    ASSERT_EQ(report.histograms.size(), 3u);
    EXPECT_EQ(report.histograms[0].name, "rwq_occupancy");
    EXPECT_EQ(report.histograms[0].hist.count(), 2u);
    EXPECT_EQ(report.histograms[1].name, "rwq_drain_residency");
    EXPECT_EQ(report.histograms[1].hist.count(), 1u);
    EXPECT_EQ(report.histograms[2].name, "link_busy");
    EXPECT_EQ(report.histograms[2].hist.max(), 1000u);
}

RunConfig
profiledConfig()
{
    RunConfig config;
    config.system.numGpus = 2;
    config.scale = 0.0625;
    config.paradigm = ParadigmKind::Gps;
    config.obs.profile = true;
    return config;
}

TEST(ProfileEndToEnd, GpsRunProducesAFullProfile)
{
    const RunResult result = runWorkload("Jacobi", profiledConfig());
    ASSERT_NE(result.obs, nullptr);
    ASSERT_TRUE(result.obs->hasProfile);
    const ProfileReport& prof = result.obs->profile;

    // One profile per (phase, gpu) kernel execution, shares summing
    // to 1 and the total matching the breakdown's wall time.
    ASSERT_FALSE(prof.kernels.empty());
    for (const BottleneckProfile& k : prof.kernels) {
        EXPECT_FALSE(k.phase.empty());
        EXPECT_LT(k.kernel.gpu, 2u);
        EXPECT_GT(k.kernel.gpuTime, 0u);
        double sum = 0.0;
        for (const double s : k.shares())
            sum += s;
        EXPECT_NEAR(sum, 1.0, 1e-9) << k.phase;
    }

    // A GPS Jacobi run forwards halo writes, so heat must exist and the
    // resolver must label the buckets with real region names.
    EXPECT_GT(prof.totalHotBuckets, 0u);
    ASSERT_FALSE(prof.hotPages.empty());
    for (const HotPage& page : prof.hotPages) {
        EXPECT_FALSE(page.region.empty());
        EXPECT_NE(page.region, "<unmapped>");
    }
    for (std::size_t i = 1; i < prof.hotPages.size(); ++i)
        EXPECT_GE(prof.hotPages[i - 1].heat.rwqBytes,
                  prof.hotPages[i].heat.rwqBytes);

    // Histograms: populated where GPS activity exists, monotone
    // percentiles everywhere.
    ASSERT_EQ(prof.histograms.size(), 3u);
    for (const NamedHistogram& h : prof.histograms) {
        const double p50 = h.hist.percentile(0.50);
        const double p90 = h.hist.percentile(0.90);
        const double p99 = h.hist.percentile(0.99);
        EXPECT_LE(p50, p90) << h.name;
        EXPECT_LE(p90, p99) << h.name;
        EXPECT_LE(p99, static_cast<double>(h.hist.max())) << h.name;
    }
    EXPECT_FALSE(prof.histograms[0].hist.empty()); // rwq_occupancy
    EXPECT_FALSE(prof.histograms[2].hist.empty()); // link_busy
}

TEST(ProfileEndToEnd, JsonParsesAndCarriesTheSchema)
{
    const RunResult result = runWorkload("Jacobi", profiledConfig());
    ASSERT_NE(result.obs, nullptr);
    const std::string json = profileToJson(*result.obs);

    std::string error;
    const auto doc = parseJson(json, error);
    ASSERT_NE(doc, nullptr) << error;
    ASSERT_TRUE(doc->isObject());

    const JsonValue* kernels = doc->find("kernels");
    ASSERT_NE(kernels, nullptr);
    ASSERT_TRUE(kernels->isArray());
    ASSERT_FALSE(kernels->items().empty());
    const JsonValue& k0 = kernels->items().front();
    EXPECT_NE(k0.find("limiter"), nullptr);
    const JsonValue* shares = k0.find("shares");
    ASSERT_NE(shares, nullptr);
    double sum = 0.0;
    for (const auto& [name, value] : shares->members())
        sum += value.asNumber();
    EXPECT_NEAR(sum, 1.0, 1e-9);

    const JsonValue* hot = doc->find("hot_pages");
    ASSERT_NE(hot, nullptr);
    ASSERT_NE(hot->find("top"), nullptr);
    EXPECT_FALSE(hot->find("top")->items().empty());

    const JsonValue* hists = doc->find("histograms");
    ASSERT_NE(hists, nullptr);
    EXPECT_EQ(hists->items().size(), 3u);
    for (const JsonValue& h : hists->items()) {
        EXPECT_LE(h.number("p50"), h.number("p90"));
        EXPECT_LE(h.number("p90"), h.number("p99"));
    }
}

/**
 * The profile and the causal graph receive the same per-kernel record:
 * the profile's wall time is the causal gpuTime, the shared formula
 * re-evaluated on the record gives that time whenever no link term
 * binds, and the slowest GPU of each phase spans the phase between its
 * prefetch and its barrier.
 */
void
expectOneRecordPerKernel(const std::string& app, RunConfig config)
{
    config.obs.profile = true;
    config.obs.causal = true;
    const RunResult result = runWorkload(app, config);
    ASSERT_NE(result.obs, nullptr);
    const ProfileReport& prof = result.obs->profile;
    const CausalReport& causal = result.obs->causal;
    ASSERT_EQ(causal.droppedPhases, 0u);

    std::size_t next = 0;
    std::size_t kernel_bound = 0;
    for (const CausalPhase& ph : causal.phases) {
        Tick slowest = 0;
        for (const KernelTiming& k : ph.kernels) {
            ASSERT_LT(next, prof.kernels.size());
            const BottleneckProfile& p = prof.kernels[next++];
            EXPECT_EQ(p.phase, ph.name);
            EXPECT_EQ(p.kernel.gpu, k.gpu);
            EXPECT_EQ(p.kernel.gpuTime, k.gpuTime) << ph.name;

            const KernelTime t = k.time(causal.model);
            EXPECT_EQ(p.tRemote, t.remote) << ph.name;
            if (t.kernel >= p.tEgress && t.kernel >= p.tIngress) {
                EXPECT_EQ(t.kernel, k.gpuTime) << ph.name;
                ++kernel_bound;
            }
            slowest = std::max(slowest, k.gpuTime);
        }
        EXPECT_EQ(slowest, ph.phaseTime - ph.prefetchTime - ph.barrierTime)
            << ph.name;
    }
    EXPECT_EQ(next, prof.kernels.size());
    EXPECT_GT(kernel_bound, 0u);
}

TEST(KernelTiming, ProfileAndCausalShareOneRecordFlat)
{
    expectOneRecordPerKernel("Jacobi", profiledConfig());
}

TEST(KernelTiming, ProfileAndCausalShareOneRecordOnTwoNodes)
{
    RunConfig config;
    config.system.numGpus = 16;
    config.system.numNodes = 2;
    config.scale = 0.25;
    config.paradigm = ParadigmKind::Memcpy;
    expectOneRecordPerKernel("ALS", config);
}

} // namespace
} // namespace gps
