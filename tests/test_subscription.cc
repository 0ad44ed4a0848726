/**
 * @file
 * Unit tests for the subscription manager: the subscription algebra of
 * Sections 3.2 and 4 (subscribe backs a replica, unsubscribe frees it,
 * the last subscriber is never removed, the GPS bit tracks
 * multi-subscriber state, oversubscription degrades gracefully).
 */

#include <gtest/gtest.h>

#include "api/system.hh"
#include "core/gps_page_table.hh"
#include "core/gps_paradigm.hh"
#include "core/subscription.hh"

namespace gps
{
namespace
{

class SubscriptionTest : public ::testing::Test
{
  protected:
    SubscriptionTest()
    {
        SystemConfig config;
        config.numGpus = 4;
        system = std::make_unique<MultiGpuSystem>(config);
        table = std::make_unique<GpsPageTable>();
        subs = std::make_unique<SubscriptionManager>(system->driver(),
                                                     *table);
        region = &system->driver().mallocGps(2 * 64 * KiB, "gps", 0);
        vpn = system->geometry().pageNum(region->base);
    }

    std::unique_ptr<MultiGpuSystem> system;
    std::unique_ptr<GpsPageTable> table;
    std::unique_ptr<SubscriptionManager> subs;
    const Region* region = nullptr;
    PageNum vpn = 0;
};

TEST_F(SubscriptionTest, SubscribeBacksReplicaFrame)
{
    EXPECT_EQ(subs->subscribe(vpn, 1), SubscribeResult::Ok);
    EXPECT_TRUE(subs->isSubscriber(vpn, 1));
    EXPECT_EQ(system->gpu(1).memory().framesInUse(), 1u);
    EXPECT_TRUE(table->lookup(vpn)->hasSubscriber(1));
}

TEST_F(SubscriptionTest, ResubscribeReportsAlready)
{
    subs->subscribe(vpn, 1);
    EXPECT_EQ(subs->subscribe(vpn, 1),
              SubscribeResult::AlreadySubscribed);
    EXPECT_EQ(system->gpu(1).memory().framesInUse(), 1u);
}

TEST_F(SubscriptionTest, GpsBitSetsAtTwoSubscribers)
{
    EXPECT_FALSE(system->driver().state(vpn).gpsBitSet);
    subs->subscribe(vpn, 1);
    EXPECT_TRUE(system->driver().state(vpn).gpsBitSet);
    EXPECT_TRUE(system->driver().pageTable(0).lookup(vpn)->gpsBit);
    EXPECT_TRUE(system->driver().pageTable(1).lookup(vpn)->gpsBit);
}

TEST_F(SubscriptionTest, UnsubscribeFreesReplicaAndDemotes)
{
    subs->subscribe(vpn, 1);
    EXPECT_EQ(subs->unsubscribe(vpn, 1), UnsubscribeResult::Ok);
    EXPECT_FALSE(subs->isSubscriber(vpn, 1));
    EXPECT_EQ(system->gpu(1).memory().framesInUse(), 0u);
    // Back to a single subscriber: GPS bit cleared (demoted).
    EXPECT_FALSE(system->driver().state(vpn).gpsBitSet);
}

TEST_F(SubscriptionTest, LastSubscriberIsRefused)
{
    // Section 4: GPS returns an error on attempts to unsubscribe the
    // last subscriber, leaving the allocation in place.
    EXPECT_EQ(subs->unsubscribe(vpn, 0),
              UnsubscribeResult::LastSubscriber);
    EXPECT_TRUE(subs->isSubscriber(vpn, 0));
    EXPECT_EQ(system->gpu(0).memory().framesInUse(), 2u);
}

TEST_F(SubscriptionTest, UnsubscribeNonSubscriberReports)
{
    EXPECT_EQ(subs->unsubscribe(vpn, 3),
              UnsubscribeResult::NotSubscribed);
}

TEST_F(SubscriptionTest, LocationFollowsWhenOwnerUnsubscribes)
{
    subs->subscribe(vpn, 2);
    EXPECT_EQ(subs->unsubscribe(vpn, 0), UnsubscribeResult::Ok);
    EXPECT_EQ(system->driver().state(vpn).location, 2);
}

TEST_F(SubscriptionTest, SubscribeAllCoversRegionAndGpus)
{
    subs->subscribeAll(*region);
    system->driver().forEachPage(*region, [&](PageNum p) {
        EXPECT_EQ(subs->subscribers(p), maskAll(4));
    });
    // 2 pages x 4 GPUs replicas in total.
    std::uint64_t frames = 0;
    for (GpuId g = 0; g < 4; ++g)
        frames += system->gpu(g).memory().framesInUse();
    EXPECT_EQ(frames, 8u);
}

TEST_F(SubscriptionTest, RangeApisCoverPartialRegions)
{
    subs->subscribeRange(region->base + 64 * KiB, 64 * KiB, 3);
    EXPECT_FALSE(subs->isSubscriber(vpn, 3));
    EXPECT_TRUE(subs->isSubscriber(vpn + 1, 3));
    EXPECT_EQ(subs->unsubscribeRange(region->base + 64 * KiB, 64 * KiB,
                                     3),
              UnsubscribeResult::Ok);
    EXPECT_FALSE(subs->isSubscriber(vpn + 1, 3));
}

TEST_F(SubscriptionTest, CollapseLeavesOneConventionalCopy)
{
    subs->subscribeAll(*region);
    KernelCounters counters;
    subs->collapse(vpn, 2, counters);
    const PageState& st = system->driver().state(vpn);
    EXPECT_EQ(st.subscribers, gpuBit(2));
    EXPECT_TRUE(st.collapsed);
    EXPECT_FALSE(st.gpsBitSet);
    EXPECT_EQ(st.location, 2);
}

TEST_F(SubscriptionTest, HistogramCountsMultiSubscriberPagesOnly)
{
    subs->subscribe(vpn, 1);          // page 0: 2 subscribers
    // page 1 stays single-subscriber and must not appear.
    Histogram hist(8);
    subs->fillHistogram(hist);
    EXPECT_EQ(hist.total(), 1u);
    EXPECT_EQ(hist.bucket(2), 1u);
}

TEST_F(SubscriptionTest, OversubscriptionRejectsGracefully)
{
    SystemConfig tiny;
    tiny.numGpus = 2;
    tiny.gpu.globalMemoryBytes = 2 * 64 * KiB;
    MultiGpuSystem small(tiny);
    GpsPageTable small_table;
    SubscriptionManager small_subs(small.driver(), small_table);
    // Fill GPU1 completely with pinned data.
    small.driver().malloc(2 * 64 * KiB, 1, "fill");
    const Region& gps_region =
        small.driver().mallocGps(64 * KiB, "gps", 0);
    const PageNum p = small.geometry().pageNum(gps_region.base);
    // GPU1 has no frames left: the subscribe is refused, the GPU simply
    // stays unsubscribed and will access remotely (Section 5.3).
    EXPECT_EQ(small_subs.subscribe(p, 1), SubscribeResult::OutOfMemory);
    EXPECT_FALSE(small_subs.isSubscriber(p, 1));
}

TEST_F(SubscriptionTest, ReclaimHookSwapsOutReplicasUnderPressure)
{
    // Section 5.3: when the driver must swap out a page from a
    // subscriber due to oversubscription, that GPU is unsubscribed and
    // accesses the page remotely.
    SystemConfig tiny;
    tiny.numGpus = 2;
    tiny.gpu.globalMemoryBytes = 3 * 64 * KiB; // three frames per GPU
    MultiGpuSystem small(tiny);
    GpsPageTable small_table;
    SubscriptionManager small_subs(small.driver(), small_table);
    small_subs.installReclaimHook();

    // Two GPS pages fully subscribed: GPU1 holds 2 replica frames.
    const Region& gps_region =
        small.driver().mallocGps(2 * 64 * KiB, "gps", 0);
    small_subs.subscribeAll(gps_region);
    EXPECT_EQ(small.gpu(1).memory().framesInUse(), 2u);

    // A pinned allocation on GPU1 needs 2 frames but only 1 is free:
    // the driver swaps out one of GPU1's replicas to make room.
    const Region& pinned = small.driver().malloc(2 * 64 * KiB, 1, "p");
    (void)pinned;
    EXPECT_EQ(small.driver().reclaims(), 1u);
    // GPU1 lost exactly one subscription; GPU0 keeps both pages.
    std::size_t gpu1_subs = 0;
    small.driver().forEachPage(gps_region, [&](PageNum vpn) {
        if (small_subs.isSubscriber(vpn, 1))
            ++gpu1_subs;
        EXPECT_TRUE(small_subs.isSubscriber(vpn, 0));
    });
    EXPECT_EQ(gpu1_subs, 1u);
}

TEST_F(SubscriptionTest, SwapOutRefusesWhenOnlyLastCopiesRemain)
{
    // Single-subscriber pages are never swapped out.
    EXPECT_FALSE(subs->swapOutOneReplica(0));
}

TEST_F(SubscriptionTest, RetireReplicaUnsubscribesAndRemovesTheFrame)
{
    subs->subscribe(vpn, 1);
    EXPECT_TRUE(subs->retireReplica(vpn, 1));
    EXPECT_FALSE(subs->isSubscriber(vpn, 1));
    EXPECT_EQ(system->gpu(1).memory().framesInUse(), 0u);
    // The frame is retired, not returned to the free list.
    EXPECT_EQ(system->gpu(1).memory().framesRetired(), 1u);
    EXPECT_EQ(subs->replicaRetires(), 1u);
}

TEST_F(SubscriptionTest, RetireReplicaRefusesTheLastCopy)
{
    // Only GPU0 holds the page: retiring it would lose the data.
    EXPECT_FALSE(subs->retireReplica(vpn, 0));
    EXPECT_TRUE(subs->isSubscriber(vpn, 0));
    EXPECT_EQ(subs->replicaRetires(), 0u);
}

TEST_F(SubscriptionTest, RetireReplicaRefusesNonSubscribers)
{
    EXPECT_FALSE(subs->retireReplica(vpn, 3));
}

TEST_F(SubscriptionTest, OversubscribedGpuFallsBackToRemoteAccess)
{
    // Section 5.3 end to end under the GPS paradigm: a GPU that cannot
    // hold a replica still accesses the page, remotely, and recovers
    // nothing locally until frames free up.
    SystemConfig tiny;
    tiny.numGpus = 2;
    tiny.gpu.globalMemoryBytes = 2 * 64 * KiB;
    MultiGpuSystem small(tiny);
    GpsPageTable small_table;
    SubscriptionManager small_subs(small.driver(), small_table);
    small.driver().malloc(2 * 64 * KiB, 1, "fill");
    const Region& gps_region =
        small.driver().mallocGps(64 * KiB, "gps", 0);
    const PageNum p = small.geometry().pageNum(gps_region.base);
    ASSERT_EQ(small_subs.subscribe(p, 1), SubscribeResult::OutOfMemory);

    // GPU1 loads through the paradigm: the access is served remotely.
    GpsParadigm paradigm(small);
    KernelCounters counters;
    TrafficMatrix traffic(2);
    const MemAccess load = MemAccess::load(gps_region.base);
    const bool miss = small.gpu(1).tlbAccess(p, counters);
    paradigm.access(1, load, p, miss, counters, traffic);
    EXPECT_EQ(counters.remoteLoads, 1u);
    EXPECT_GT(traffic.total(), 0u);
}

TEST_F(SubscriptionTest, StatsCountOperations)
{
    subs->subscribe(vpn, 1);
    subs->subscribe(vpn, 2);
    subs->unsubscribe(vpn, 1);
    StatSet stats;
    StatWriter(stats).visit(*subs);
    EXPECT_DOUBLE_EQ(stats.get("subscription_manager.subscribe_ops"),
                     2.0);
    EXPECT_DOUBLE_EQ(stats.get("subscription_manager.unsubscribe_ops"),
                     1.0);
}

} // namespace
} // namespace gps
