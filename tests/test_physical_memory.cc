/**
 * @file
 * Unit tests for the per-GPU physical frame allocator.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/physical_memory.hh"

namespace gps
{
namespace
{

PhysicalMemory
makeMemory(std::uint64_t frames)
{
    return PhysicalMemory("mem", frames * 64 * KiB, PageGeometry(64 * KiB));
}

TEST(PhysicalMemory, CapacityDerivesFrameCount)
{
    auto mem = makeMemory(16);
    EXPECT_EQ(mem.totalFrames(), 16u);
    EXPECT_EQ(mem.framesFree(), 16u);
}

TEST(PhysicalMemory, AllocatesDistinctFrames)
{
    auto mem = makeMemory(8);
    std::set<PageNum> seen;
    for (int i = 0; i < 8; ++i) {
        auto ppn = mem.allocFrame();
        ASSERT_TRUE(ppn.has_value());
        EXPECT_TRUE(seen.insert(*ppn).second);
    }
    EXPECT_EQ(mem.framesInUse(), 8u);
}

TEST(PhysicalMemory, ExhaustionReturnsNullopt)
{
    auto mem = makeMemory(2);
    ASSERT_TRUE(mem.allocFrame().has_value());
    ASSERT_TRUE(mem.allocFrame().has_value());
    EXPECT_FALSE(mem.allocFrame().has_value());
}

TEST(PhysicalMemory, FreedFramesAreReused)
{
    auto mem = makeMemory(2);
    const PageNum a = *mem.allocFrame();
    ASSERT_TRUE(mem.allocFrame().has_value());
    mem.freeFrame(a);
    auto again = mem.allocFrame();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, a);
}

TEST(PhysicalMemory, AllocatedTracksLiveness)
{
    auto mem = makeMemory(4);
    const PageNum a = *mem.allocFrame();
    EXPECT_TRUE(mem.allocated(a));
    mem.freeFrame(a);
    EXPECT_FALSE(mem.allocated(a));
    EXPECT_FALSE(mem.allocated(999));
}

TEST(PhysicalMemoryDeath, DoubleFreePanics)
{
    auto mem = makeMemory(4);
    const PageNum a = *mem.allocFrame();
    mem.freeFrame(a);
    EXPECT_DEATH(mem.freeFrame(a), "double free");
}

TEST(PhysicalMemory, StatsTrackPeakUsage)
{
    auto mem = makeMemory(4);
    const PageNum a = *mem.allocFrame();
    const PageNum b = *mem.allocFrame();
    mem.freeFrame(a);
    mem.freeFrame(b);
    StatSet stats;
    StatWriter(stats).visit(mem);
    EXPECT_DOUBLE_EQ(stats.get("mem.frames_peak"), 2.0);
    EXPECT_DOUBLE_EQ(stats.get("mem.frames_in_use"), 0.0);
}

TEST(PhysicalMemory, RetiringRecycledFrameChargesCapacityOnce)
{
    // Regression: retiring a frame off the free list used to shrink
    // both the free list and the bump region (the retired frame was
    // double-charged), silently losing an extra frame of capacity.
    auto mem = makeMemory(4);
    const PageNum a = *mem.allocFrame();
    mem.freeFrame(a);
    EXPECT_EQ(mem.retireFrames(1), 1u);
    EXPECT_EQ(mem.totalFrames(), 3u);
    EXPECT_EQ(mem.framesFree(), 3u);
    // All three surviving frames must still be allocatable.
    EXPECT_TRUE(mem.allocFrame().has_value());
    EXPECT_TRUE(mem.allocFrame().has_value());
    EXPECT_TRUE(mem.allocFrame().has_value());
    EXPECT_FALSE(mem.allocFrame().has_value());
}

TEST(PhysicalMemory, RetirementLedgerBalances)
{
    auto mem = makeMemory(8);
    const PageNum a = *mem.allocFrame();
    const PageNum b = *mem.allocFrame();
    mem.freeFrame(a);
    mem.freeFrame(b);
    EXPECT_EQ(mem.retireFrames(3), 3u);
    EXPECT_EQ(mem.initialFrames(),
              mem.totalFrames() + mem.framesRetired());
    EXPECT_EQ(mem.framesFree(), mem.allocatableFrames());
}

TEST(PhysicalMemory, RetireNeverTouchesFramesInUse)
{
    auto mem = makeMemory(4);
    std::vector<PageNum> held;
    for (int i = 0; i < 3; ++i)
        held.push_back(*mem.allocFrame());
    // Only one frame is free; a larger request retires just that one.
    EXPECT_EQ(mem.retireFrames(3), 1u);
    EXPECT_EQ(mem.framesInUse(), 3u);
    EXPECT_EQ(mem.framesFree(), 0u);
    EXPECT_EQ(mem.framesFree(), mem.allocatableFrames());
    for (const PageNum ppn : held)
        EXPECT_TRUE(mem.allocated(ppn));
}

TEST(PhysicalMemory, FullDrainAndRefill)
{
    auto mem = makeMemory(32);
    std::vector<PageNum> frames;
    while (auto ppn = mem.allocFrame())
        frames.push_back(*ppn);
    EXPECT_EQ(frames.size(), 32u);
    for (const PageNum ppn : frames)
        mem.freeFrame(ppn);
    EXPECT_EQ(mem.framesFree(), 32u);
    EXPECT_TRUE(mem.allocFrame().has_value());
}

} // namespace
} // namespace gps
