/**
 * @file
 * Unit and property tests for the GPS remote write queue: coalescing,
 * FIFO watermark draining, page flushes, hit-rate accounting and the
 * physically-addressed ablation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/remote_write_queue.hh"

namespace gps
{
namespace
{

class WqTest : public ::testing::Test
{
  protected:
    RemoteWriteQueue&
    makeQueue(std::uint32_t entries, bool virtually_addressed = true)
    {
        config.wqEntries = entries;
        config.virtuallyAddressedWq = virtually_addressed;
        queue_ = std::make_unique<RemoteWriteQueue>(
            "wq", config, 128, PageGeometry(64 * KiB));
        queue_->setDrainCallback(
            [this](const WqEntry& e) { drained.push_back(e); });
        return *queue_;
    }

    std::unique_ptr<RemoteWriteQueue> queue_;

    GpsConfig config;
    std::vector<WqEntry> drained;
};

TEST_F(WqTest, FirstStoreAllocatesEntry)
{
    auto& queue = makeQueue(16);
    EXPECT_FALSE(queue.insert(0x1000, 4, 1));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.inserts(), 1u);
}

TEST_F(WqTest, SameLineStoresCoalesce)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    EXPECT_TRUE(queue.insert(0x1004, 4, 1));
    EXPECT_TRUE(queue.insert(0x1040, 8, 1));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.coalesced(), 2u);
}

TEST_F(WqTest, NonConsecutiveSameLineStoresStillCoalesce)
{
    // Section 3.3: stores need not be consecutive to coalesce.
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    queue.insert(0x2000, 4, 1);
    queue.insert(0x3000, 4, 1);
    EXPECT_TRUE(queue.insert(0x1008, 4, 1));
}

TEST_F(WqTest, WatermarkDrainsLeastRecentlyAdded)
{
    auto& queue = makeQueue(4); // watermark = 3
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.insert(2 * 128, 4, 1);
    EXPECT_TRUE(drained.empty());
    queue.insert(3 * 128, 4, 1); // occupancy 4 > 3: drain the oldest
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].line, 0u);
}

TEST_F(WqTest, CoalescingIntoOldEntryDoesNotRefreshItsAge)
{
    auto& queue = makeQueue(4);
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.insert(2 * 128, 4, 1);
    queue.insert(0 * 128 + 4, 4, 1); // coalesces; age unchanged
    queue.insert(3 * 128, 4, 1);     // drain: line 0 is still oldest
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].line, 0u);
    EXPECT_EQ(drained[0].mergedStores, 2u);
}

TEST_F(WqTest, DrainAllFlushesInFifoOrder)
{
    auto& queue = makeQueue(16);
    queue.insert(2 * 128, 4, 1);
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.drainAll();
    ASSERT_EQ(drained.size(), 3u);
    EXPECT_EQ(drained[0].line, 2 * 128u);
    EXPECT_EQ(drained[1].line, 0u);
    EXPECT_EQ(drained[2].line, 1 * 128u);
    EXPECT_EQ(queue.occupancy(), 0u);
}

TEST_F(WqTest, DrainPageFlushesOnlyThatPage)
{
    auto& queue = makeQueue(16);
    const Addr page0 = 0;
    const Addr page1 = 64 * KiB;
    queue.insert(page0, 4, 1);
    queue.insert(page1, 4, 1);
    queue.insert(page0 + 128, 4, 1);
    queue.drainPage(0);
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_TRUE(queue.contains(page1));
    EXPECT_FALSE(queue.contains(page0));
}

TEST_F(WqTest, ContainsChecksLineResidency)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    EXPECT_TRUE(queue.contains(0x1000));
    EXPECT_TRUE(queue.contains(0x107F));
    EXPECT_FALSE(queue.contains(0x1080));
}

TEST_F(WqTest, BytesWrittenAccumulateAndCapAtLine)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 100, 1);
    queue.insert(0x1000, 100, 1);
    queue.drainAll();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].bytesWritten, 128u);
}

TEST_F(WqTest, HitRateIncludesAtomicBypasses)
{
    // Section 7.4: atomics are not coalesced and count as misses.
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1); // miss
    queue.insert(0x1004, 4, 1); // hit
    queue.noteAtomicBypass();
    queue.noteAtomicBypass();
    EXPECT_DOUBLE_EQ(queue.hitRate(), 0.25);
}

TEST_F(WqTest, PhysicallyAddressedEntriesWeighPerSubscriber)
{
    // Section 5.3 ablation: one entry per (line, subscriber) shrinks
    // effective capacity.
    auto& queue = makeQueue(8, false);
    queue.insert(0, 4, 3);   // weight 3
    queue.insert(128, 4, 3); // weight 3
    EXPECT_EQ(queue.occupancy(), 6u);
    queue.insert(256, 4, 3); // occupancy 9 > watermark 7: drains
    EXPECT_FALSE(drained.empty());
}

TEST_F(WqTest, VirtualAddressingKeepsOneEntryRegardless)
{
    auto& queue = makeQueue(8, true);
    queue.insert(0, 4, 3);
    EXPECT_EQ(queue.occupancy(), 1u);
}

TEST_F(WqTest, CoalescingRefreshesWeightWhenCopiesGrow)
{
    // Physically addressed: an entry's weight is the subscriber copy
    // count, which can change between the allocating store and a later
    // coalescing one. The coalesce must re-charge occupancy.
    auto& queue = makeQueue(16, false);
    queue.insert(0, 4, 1);
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_TRUE(queue.insert(4, 4, 3));
    EXPECT_EQ(queue.occupancy(), 3u);
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
}

TEST_F(WqTest, CoalescingRefreshesWeightWhenCopiesShrink)
{
    auto& queue = makeQueue(16, false);
    queue.insert(0, 4, 3);
    EXPECT_EQ(queue.occupancy(), 3u);
    EXPECT_TRUE(queue.insert(4, 4, 1));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
}

TEST_F(WqTest, WeightGrowthOnCoalesceCanForceWatermarkDrain)
{
    auto& queue = makeQueue(4, false); // watermark = 3
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.insert(2 * 128, 4, 1);
    EXPECT_TRUE(drained.empty());
    // Coalesce into line 0 with more copies: occupancy 5 > watermark 3.
    EXPECT_TRUE(queue.insert(0 * 128 + 4, 4, 3));
    EXPECT_FALSE(drained.empty());
    EXPECT_LE(queue.occupancy(), 3u);
    EXPECT_EQ(queue.inserts(),
              queue.drains() + queue.residentEntries());
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
}

TEST_F(WqTest, VirtualWqIgnoresCopiesOnCoalesce)
{
    auto& queue = makeQueue(16, true);
    queue.insert(0, 4, 1);
    EXPECT_TRUE(queue.insert(4, 4, 3));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.weightSum(), 1u);
}

TEST_F(WqTest, DrainPageInterleavedWithWatermarkKeepsConservation)
{
    // drainPage in the middle of watermark-driven churn must keep the
    // books balanced: inserts == drains + resident, occupancy == Σ w.
    auto& queue = makeQueue(4, false);
    const Addr page1 = 64 * KiB;
    queue.insert(0 * 128, 4, 2);        // page 0, weight 2
    queue.insert(page1 + 0 * 128, 4, 1); // page 1
    queue.drainPage(0);                  // flush page 0 only
    queue.insert(page1 + 1 * 128, 4, 2);
    queue.insert(0 * 128, 4, 2);         // page 0 again; forces drains
    queue.insert(page1 + 2 * 128, 4, 1);
    queue.drainPage(1);
    queue.insert(0 * 128 + 8, 4, 2);     // coalesce or realloc
    EXPECT_EQ(queue.inserts(),
              queue.drains() + queue.residentEntries());
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
    queue.drainAll();
    EXPECT_EQ(queue.inserts(), queue.drains());
    EXPECT_EQ(queue.occupancy(), 0u);
    EXPECT_EQ(queue.residentEntries(), 0u);
}

TEST_F(WqTest, ForwardHitsCountAndExport)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    queue.noteForwardHit();
    queue.noteForwardHit();
    EXPECT_EQ(queue.forwardHits(), 2u);
    StatSet stats;
    StatWriter(stats).visit(queue);
    EXPECT_DOUBLE_EQ(stats.get("wq.forward_hits"), 2.0);
}

TEST_F(WqTest, SramFootprintMatchesTable1)
{
    auto& queue = makeQueue(512);
    // 512 entries x 135 B = 69120 B ~ 68 KB (Section 5.2).
    EXPECT_EQ(queue.sramBytes(), 512u * 135u);
    EXPECT_NEAR(static_cast<double>(queue.sramBytes()) / 1024.0, 67.5,
                0.1);
}

/** Property: occupancy never exceeds the watermark after an insert. */
class WqCapacity : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(WqCapacity, OccupancyBoundedByWatermark)
{
    GpsConfig config;
    config.wqEntries = GetParam();
    RemoteWriteQueue queue("wq", config, 128, PageGeometry(64 * KiB));
    queue.setDrainCallback([](const WqEntry&) {});
    for (Addr line = 0; line < 4096; ++line) {
        queue.insert(line * 128, 4, 3);
        ASSERT_LE(queue.occupancy(), config.highWatermark());
    }
}

TEST_P(WqCapacity, EveryInsertEventuallyDrainsExactlyOnce)
{
    GpsConfig config;
    config.wqEntries = GetParam();
    RemoteWriteQueue queue("wq", config, 128, PageGeometry(64 * KiB));
    std::uint64_t drains = 0;
    queue.setDrainCallback([&](const WqEntry&) { ++drains; });
    const std::uint64_t lines = 1000;
    for (Addr line = 0; line < lines; ++line)
        queue.insert(line * 128, 4, 1);
    queue.drainAll();
    EXPECT_EQ(drains, lines);
    EXPECT_EQ(queue.occupancy(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WqCapacity,
                         ::testing::Values(4, 16, 64, 512, 1024));

} // namespace
} // namespace gps
