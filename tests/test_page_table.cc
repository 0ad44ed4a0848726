/**
 * @file
 * Unit tests for the conventional page table and its GPS bit.
 */

#include <gtest/gtest.h>

#include "mem/page_table.hh"

namespace gps
{
namespace
{

TEST(PageTable, LookupMissReturnsNull)
{
    PageTable table("pt");
    EXPECT_EQ(table.lookup(5), nullptr);
}

TEST(PageTable, MapThenLookup)
{
    PageTable table("pt");
    table.map(5, Pte{42, 1, false});
    const Pte* pte = table.lookup(5);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->ppn, 42u);
    EXPECT_EQ(pte->location, 1);
    EXPECT_FALSE(pte->gpsBit);
}

TEST(PageTable, RemapReplacesEntry)
{
    PageTable table("pt");
    table.map(5, Pte{42, 1, false});
    table.map(5, Pte{43, 2, true});
    const Pte* pte = table.lookup(5);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->ppn, 43u);
    EXPECT_EQ(pte->location, 2);
    EXPECT_TRUE(pte->gpsBit);
    EXPECT_EQ(table.size(), 1u);
}

TEST(PageTable, UnmapRemoves)
{
    PageTable table("pt");
    table.map(5, Pte{42, 1, false});
    table.unmap(5);
    EXPECT_EQ(table.lookup(5), nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST(PageTable, UnmapMissingIsNoop)
{
    PageTable table("pt");
    table.unmap(999);
    EXPECT_EQ(table.size(), 0u);
}

TEST(PageTable, SetGpsBitTogglesOnly)
{
    PageTable table("pt");
    table.map(7, Pte{10, 0, false});
    table.setGpsBit(7, true);
    EXPECT_TRUE(table.lookup(7)->gpsBit);
    EXPECT_EQ(table.lookup(7)->ppn, 10u);
    table.setGpsBit(7, false);
    EXPECT_FALSE(table.lookup(7)->gpsBit);
}

TEST(PageTableDeath, SetGpsBitOnUnmappedPanics)
{
    PageTable table("pt");
    EXPECT_DEATH(table.setGpsBit(1, true), "unmapped");
}

TEST(PageTable, StatsCountOps)
{
    PageTable table("pt");
    table.map(1, Pte{});
    table.map(2, Pte{});
    table.unmap(1);
    StatSet stats;
    StatWriter(stats).visit(table);
    EXPECT_DOUBLE_EQ(stats.get("pt.map_ops"), 2.0);
    EXPECT_DOUBLE_EQ(stats.get("pt.unmap_ops"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("pt.mappings"), 1.0);
}

} // namespace
} // namespace gps
