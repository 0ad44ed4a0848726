/**
 * @file
 * Unit tests for the GPS paradigm: load/store routing, store
 * forwarding, write-queue forwarding to loads, sys-scope collapse,
 * profiling-driven unsubscription and manual subscription, plus an
 * oracle for subscriber forwarding on flat and multi-node systems.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "common/rng.hh"
#include "core/gps_paradigm.hh"

namespace gps
{
namespace
{

class GpsParadigmTest : public ::testing::Test
{
  protected:
    GpsParadigmTest()
    {
        SystemConfig config;
        config.numGpus = 4;
        system = std::make_unique<MultiGpuSystem>(config);
        paradigm = std::make_unique<GpsParadigm>(*system);
        traffic = std::make_unique<TrafficMatrix>(4);
        region = &system->driver().mallocGps(2 * 64 * KiB, "gps", 0);
        vpn = system->geometry().pageNum(region->base);
        paradigm->onSetupComplete(); // subscribe-all (auto mode)
    }

    void
    access(GpuId gpu, const MemAccess& a)
    {
        const PageNum page = system->geometry().pageNum(a.vaddr);
        const bool miss = system->gpu(gpu).tlbAccess(page, counters);
        paradigm->access(gpu, a, page, miss, counters, *traffic);
    }

    void
    endKernels()
    {
        for (GpuId g = 0; g < 4; ++g)
            paradigm->endKernel(g, counters, *traffic);
    }

    std::unique_ptr<MultiGpuSystem> system;
    std::unique_ptr<GpsParadigm> paradigm;
    std::unique_ptr<TrafficMatrix> traffic;
    const Region* region = nullptr;
    PageNum vpn = 0;
    KernelCounters counters;
};

TEST_F(GpsParadigmTest, SetupSubscribesEveryGpuToAutoRegions)
{
    EXPECT_EQ(paradigm->subscriptions().subscribers(vpn), maskAll(4));
    EXPECT_TRUE(system->driver().state(vpn).gpsBitSet);
}

TEST_F(GpsParadigmTest, SubscriberLoadIsPurelyLocal)
{
    access(1, MemAccess::load(region->base));
    EXPECT_EQ(counters.remoteLoads, 0u);
    EXPECT_EQ(traffic->total(), 0u);
    EXPECT_EQ(counters.l2Misses, 1u);
}

TEST_F(GpsParadigmTest, WeakStoreEntersWriteQueueNotWire)
{
    access(0, MemAccess::store(region->base));
    EXPECT_EQ(counters.wqInserts, 1u);
    // Nothing drained yet: no traffic until a drain point.
    EXPECT_EQ(traffic->total(), 0u);
}

TEST_F(GpsParadigmTest, DrainForwardsOneLineToEachRemoteSubscriber)
{
    access(0, MemAccess::store(region->base));
    endKernels();
    EXPECT_EQ(counters.wqDrains, 1u);
    const std::uint64_t msg =
        128 + system->topology().spec().headerBytes;
    for (GpuId g = 1; g < 4; ++g)
        EXPECT_EQ(traffic->at(0, g), msg);
    EXPECT_EQ(traffic->at(0, 0), 0u);
    EXPECT_EQ(counters.pushedStoreBytes, 3u * 128u);
}

TEST_F(GpsParadigmTest, SameLineStoresCoalesceBeforeTheWire)
{
    // Two temporally distant same-line stores: one wire message.
    access(0, MemAccess::store(region->base));
    for (Addr a = 128; a < 128 * 40; a += 128)
        access(0, MemAccess::store(region->base + a));
    access(0, MemAccess::store(region->base + 4));
    EXPECT_EQ(counters.wqCoalesced, 1u);
    endKernels();
    EXPECT_EQ(counters.wqDrains, 40u);
}

TEST_F(GpsParadigmTest, SmCoalescerAbsorbsImmediateSameLineStores)
{
    access(0, MemAccess::store(region->base));
    access(0, MemAccess::store(region->base + 4));
    EXPECT_EQ(counters.smCoalesced, 1u);
    EXPECT_EQ(counters.wqInserts, 1u);
}

TEST_F(GpsParadigmTest, AtomicsBypassCoalescingAndForwardEach)
{
    access(0, MemAccess::atomic(region->base, 4));
    access(0, MemAccess::atomic(region->base, 4));
    EXPECT_EQ(counters.wqAtomicBypass, 2u);
    EXPECT_EQ(counters.wqCoalesced, 0u);
    // Forwarded immediately (never queued), one message per atomic per
    // subscriber; the phase traffic matrix is complete at endKernel.
    EXPECT_EQ(counters.pushedStoreBytes, 2u * 3u * 4u);
    endKernels();
    EXPECT_EQ(counters.wqDrains, 0u);
    const std::uint64_t msg =
        4 + system->topology().spec().headerBytes;
    EXPECT_EQ(traffic->at(0, 1), 2 * msg);
    EXPECT_DOUBLE_EQ(paradigm->wqHitRate(), 0.0);
}

TEST_F(GpsParadigmTest, SoleSubscriberStoreIsNotForwarded)
{
    // Unsubscribe everyone but GPU0: the page is demoted.
    KernelCounters scratch;
    for (GpuId g = 1; g < 4; ++g)
        paradigm->subscriptions().unsubscribe(vpn, g, &scratch);
    access(0, MemAccess::store(region->base));
    endKernels();
    EXPECT_EQ(traffic->total(), 0u);
    EXPECT_EQ(counters.wqInserts, 0u);
}

TEST_F(GpsParadigmTest, NonSubscriberLoadGoesToASubscriber)
{
    KernelCounters scratch;
    // GPU3 unsubscribes from page 0.
    paradigm->subscriptions().unsubscribe(vpn, 3, &scratch);
    access(3, MemAccess::load(region->base));
    EXPECT_EQ(counters.remoteLoads, 1u);
}

TEST_F(GpsParadigmTest, NonSubscriberLoadForwardsFromOwnWriteQueue)
{
    KernelCounters scratch;
    paradigm->subscriptions().unsubscribe(vpn, 3, &scratch);
    // GPU3 stores first (buffered in its WQ), then loads the same line.
    access(3, MemAccess::store(region->base));
    access(3, MemAccess::load(region->base));
    EXPECT_EQ(counters.remoteLoads, 0u);
}

TEST_F(GpsParadigmTest, SysStoreCollapsesThePage)
{
    access(0, MemAccess::store(region->base)); // in-flight weak store
    access(1, MemAccess::sysStore(region->base));
    EXPECT_EQ(counters.sysCollapses, 1u);
    const PageState& st = system->driver().state(vpn);
    EXPECT_TRUE(st.collapsed);
    EXPECT_EQ(maskCount(st.subscribers), 1u);
    // The in-flight write was flushed before the collapse.
    EXPECT_GE(counters.wqDrains, 1u);
    // Subsequent accesses behave conventionally (single copy).
    const std::uint64_t loads_before = counters.remoteLoads;
    access(2, MemAccess::load(region->base));
    EXPECT_GE(counters.remoteLoads, loads_before);
}

TEST_F(GpsParadigmTest, TrackingStopUnsubscribesUntouchedGpus)
{
    paradigm->trackingStart();
    // Only GPUs 0 and 2 touch page 0 during profiling; nobody touches
    // page 1.
    access(0, MemAccess::store(region->base));
    access(2, MemAccess::load(region->base));
    endKernels();
    paradigm->trackingStop(counters);
    EXPECT_EQ(paradigm->subscriptions().subscribers(vpn),
              gpuBit(0) | gpuBit(2));
    // Untouched page keeps exactly one subscriber.
    EXPECT_EQ(maskCount(paradigm->subscriptions().subscribers(vpn + 1)),
              1u);
}

TEST_F(GpsParadigmTest, TrackingDisabledKeepsAllToAll)
{
    SystemConfig config;
    config.numGpus = 4;
    config.gps.autoUnsubscribe = false;
    MultiGpuSystem sys2(config);
    GpsParadigm p2(sys2);
    const Region& r = sys2.driver().mallocGps(64 * KiB, "gps", 0);
    p2.onSetupComplete();
    p2.trackingStart();
    KernelCounters c;
    p2.trackingStop(c);
    EXPECT_EQ(p2.subscriptions().subscribers(
                  sys2.geometry().pageNum(r.base)),
              maskAll(4));
}

TEST_F(GpsParadigmTest, ManualRegionsAreNotAutoSubscribed)
{
    SystemConfig config;
    config.numGpus = 4;
    MultiGpuSystem sys2(config);
    GpsParadigm p2(sys2);
    const Region& r =
        sys2.driver().mallocGps(64 * KiB, "manual", 1, true);
    p2.onSetupComplete();
    const PageNum p = sys2.geometry().pageNum(r.base);
    EXPECT_EQ(p2.subscriptions().subscribers(p), gpuBit(1));
    // Manual subscription through the memAdvise-style hook.
    p2.adviseSubscribe(r.base, r.size, 3);
    EXPECT_EQ(p2.subscriptions().subscribers(p),
              gpuBit(1) | gpuBit(3));
    EXPECT_TRUE(p2.adviseUnsubscribe(r.base, r.size, 3));
    // Refusing to drop the last subscriber reports false.
    EXPECT_FALSE(p2.adviseUnsubscribe(r.base, r.size, 1));
}

TEST_F(GpsParadigmTest, GpsTlbCountsHitsOnRepeatedDrains)
{
    for (int i = 0; i < 10; ++i) {
        access(0, MemAccess::store(region->base +
                                   static_cast<Addr>(i) * 128));
    }
    endKernels();
    EXPECT_EQ(counters.gpsTlbMisses, 1u);
    EXPECT_EQ(counters.gpsTlbHits, 9u);
    EXPECT_GT(paradigm->gpsTlbHitRate(), 0.8);
}

TEST_F(GpsParadigmTest, SubscriberHistogramReflectsSubscriptions)
{
    KernelCounters scratch;
    paradigm->subscriptions().unsubscribe(vpn, 2, &scratch);
    paradigm->subscriptions().unsubscribe(vpn, 3, &scratch);
    Histogram hist(8);
    EXPECT_TRUE(paradigm->fillSubscriberHistogram(hist));
    EXPECT_EQ(hist.bucket(2), 1u); // page 0: two subscribers
    EXPECT_EQ(hist.bucket(4), 1u); // page 1: still all four
}

/** System shape for the forwarding oracle. */
struct ForwardShape
{
    const char* name;
    std::size_t nodes;
    bool hierarchical;
};

void
PrintTo(const ForwardShape& shape, std::ostream* os)
{
    *os << shape.name;
}

class GpsForwardOracle : public ::testing::TestWithParam<ForwardShape>
{};

/**
 * Seeded random subscriber masks, then atomics and weak stores from
 * random GPUs. Every store hits a line its GPU has not written before,
 * so each one drains as exactly one message. After the kernels end,
 * the traffic matrix, payload total, pushed bytes and uplink count
 * must equal a one-message-per-subscriber expansion computed here.
 */
TEST_P(GpsForwardOracle, TrafficEqualsPerSubscriberExpansion)
{
    const ForwardShape shape = GetParam();
    constexpr std::size_t gpus = 16;
    constexpr std::size_t pages = 48;
    const std::size_t per_node = gpus / shape.nodes;

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        SystemConfig config;
        config.numGpus = gpus;
        config.numNodes = shape.nodes;
        config.gps.hierarchicalSubscription = shape.hierarchical;
        MultiGpuSystem sys(config);
        GpsParadigm gps(sys);
        const PageGeometry& geo = sys.geometry();
        const Region& region = sys.driver().mallocGps(
            pages * geo.bytes(), "oracle", 0, /*manual=*/true);
        gps.onSetupComplete();
        const std::uint32_t line = sys.config().gpu.cacheLineBytes;
        const std::uint64_t header = sys.topology().spec().headerBytes;

        // Random masks of every degree; GPU 0 (the backing home) drops
        // out unless drawn.
        Rng rng(seed);
        std::vector<GpuMask> subs(pages);
        for (std::size_t p = 0; p < pages; ++p) {
            const std::size_t degree = 1 + rng.below(gpus);
            while (maskCount(subs[p]) < degree)
                subs[p] = maskSet(subs[p],
                                  static_cast<GpuId>(rng.below(gpus)));
            const Addr base = region.base + p * geo.bytes();
            maskForEach(subs[p], [&](GpuId g) {
                gps.manualSubscribe(base, geo.bytes(), g);
            });
            if (!maskHas(subs[p], 0))
                gps.manualUnsubscribe(base, geo.bytes(), 0);
            ASSERT_EQ(gps.subscriptions().subscribers(
                          geo.pageNum(base)),
                      subs[p]);
        }

        TrafficMatrix traffic(gpus);
        KernelCounters counters;
        std::vector<std::uint64_t> want(gpus * gpus, 0);
        std::uint64_t want_payload = 0;
        std::uint64_t want_uplinks = 0;
        // One message from `producer` to every other subscriber of page
        // `p`, expanded the slow way: on a hierarchical multi-node system
        // the lowest-id subscriber of each remote node takes the uplink
        // copy and relays it to its node-mates.
        auto expand = [&](GpuId producer, std::size_t p,
                          std::uint32_t payload) {
            const std::size_t home = producer / per_node;
            maskForEach(subs[p], [&](GpuId sub) {
                if (sub == producer)
                    return;
                GpuId src = producer;
                const std::size_t node = sub / per_node;
                if (node != home) {
                    GpuId proxy = invalidGpu;
                    maskForEach(subs[p], [&](GpuId g) {
                        if (g / per_node == node && proxy == invalidGpu)
                            proxy = g;
                    });
                    if (!shape.hierarchical || sub == proxy)
                        ++want_uplinks;
                    else
                        src = proxy;
                }
                want[src * gpus + sub] += payload + header;
                want_payload += payload;
            });
        };

        std::map<std::pair<GpuId, std::size_t>, std::uint64_t> next_line;
        std::uint64_t stores = 0;
        for (int kernel = 0; kernel < 2; ++kernel) {
            for (int op = 0; op < 400; ++op) {
                const GpuId gpu = static_cast<GpuId>(rng.below(gpus));
                const std::size_t p = rng.below(pages);
                const Addr page = region.base + p * geo.bytes();
                MemAccess access;
                if (rng.below(2) == 0) {
                    const std::uint32_t size = 4u << rng.below(2);
                    access = MemAccess::atomic(
                        page + rng.below(geo.bytes() / size) * size, size);
                    expand(gpu, p, size);
                } else {
                    const std::uint64_t l = next_line[{gpu, p}]++;
                    ASSERT_LT(l, geo.bytes() / line);
                    access = MemAccess::store(page + l * line);
                    expand(gpu, p, line);
                    // A sole subscriber's store never enters the queue.
                    if (maskClear(subs[p], gpu) != 0)
                        ++stores;
                }
                const PageNum vpn = geo.pageNum(access.vaddr);
                const bool miss = sys.gpu(gpu).tlbAccess(vpn, counters);
                gps.access(gpu, access, vpn, miss, counters, traffic);
            }
            for (GpuId g = 0; g < gpus; ++g)
                gps.endKernel(g, counters, traffic);

            ASSERT_EQ(counters.wqCoalesced, 0u);
            ASSERT_EQ(counters.smCoalesced, 0u);
            ASSERT_EQ(counters.wqDrains, stores);
            for (GpuId src = 0; src < gpus; ++src)
                for (GpuId dst = 0; dst < gpus; ++dst)
                    EXPECT_EQ(traffic.at(src, dst), want[src * gpus + dst])
                        << "kernel " << kernel << " " << src << "->"
                        << dst;
            EXPECT_EQ(traffic.payload(), want_payload);
            EXPECT_EQ(counters.pushedStoreBytes, want_payload);
            EXPECT_EQ(gps.uplinkForwards(), want_uplinks);
            if (shape.nodes == 1)
                EXPECT_EQ(want_uplinks, 0u);
            else
                EXPECT_GT(want_uplinks, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GpsForwardOracle,
    ::testing::Values(ForwardShape{"Flat", 1, true},
                      ForwardShape{"Nodes4x4Hierarchical", 4, true},
                      ForwardShape{"Nodes4x4Flat", 4, false}),
    [](const ::testing::TestParamInfo<ForwardShape>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace gps
