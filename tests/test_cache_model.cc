/**
 * @file
 * Unit and property tests for the set-associative write-back cache,
 * plus a differential check against a deliberately plain reference L2.
 */

#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <ostream>
#include <set>

#include "cache/cache_model.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace gps
{
namespace
{

CacheModel
makeCache(std::uint64_t capacity = 16 * KiB, std::uint32_t ways = 4)
{
    return CacheModel("l2", capacity, 128, ways);
}

TEST(CacheModel, ColdMissThenHit)
{
    auto cache = makeCache();
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(CacheModel, SameLineDifferentOffsetHits)
{
    auto cache = makeCache();
    cache.access(0x1000, false);
    EXPECT_TRUE(cache.access(0x107F, false).hit);
    EXPECT_FALSE(cache.access(0x1080, false).hit);
}

TEST(CacheModel, CleanEvictionHasNoWriteback)
{
    auto cache = makeCache(1024, 1); // 8 sets, direct mapped
    cache.access(0, false);
    // Same set, different tag: evicts the clean line.
    const CacheResult result = cache.access(1024, false);
    EXPECT_FALSE(result.hit);
    EXPECT_EQ(result.writebackBytes, 0u);
}

TEST(CacheModel, DirtyEvictionWritesBack)
{
    auto cache = makeCache(1024, 1);
    cache.access(0, true); // dirty
    const CacheResult result = cache.access(1024, false);
    EXPECT_EQ(result.writebackBytes, 128u);
}

TEST(CacheModel, ReadAfterWriteKeepsDirtyUntilEviction)
{
    auto cache = makeCache(1024, 1);
    cache.access(0, true);
    cache.access(0, false); // read hit must not clean the line
    EXPECT_EQ(cache.access(1024, false).writebackBytes, 128u);
}

TEST(CacheModel, LruKeepsRecentlyUsedWay)
{
    auto cache = makeCache(2 * 128, 2); // one set, two ways
    cache.access(0, false);
    cache.access(128, false);
    cache.access(0, false);      // refresh way holding line 0
    cache.access(256, false);    // evicts line 128
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(128));
}

TEST(CacheModel, InvalidatePageDropsAllItsLines)
{
    auto cache = makeCache(64 * KiB, 8);
    for (Addr a = 0; a < 4096; a += 128)
        cache.access(a, true);
    const std::uint64_t wb = cache.invalidatePage(0, 4096);
    EXPECT_EQ(wb, 4096u);
    for (Addr a = 0; a < 4096; a += 128)
        EXPECT_FALSE(cache.contains(a));
}

TEST(CacheModel, InvalidatePageLeavesOtherPages)
{
    auto cache = makeCache(64 * KiB, 8);
    cache.access(0, false);
    cache.access(8192, false);
    cache.invalidatePage(0, 4096);
    EXPECT_TRUE(cache.contains(8192));
}

TEST(CacheModel, FlushAllReportsDirtyBytes)
{
    auto cache = makeCache();
    cache.access(0, true);
    cache.access(128, false);
    cache.access(256, true);
    EXPECT_EQ(cache.flushAll(), 256u);
    EXPECT_FALSE(cache.contains(0));
}

TEST(CacheModel, HitRateMath)
{
    auto cache = makeCache();
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    cache.access(128, false);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

/** Property: working sets within capacity re-access at 100% hits. */
class CacheCapacity
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{};

TEST_P(CacheCapacity, SequentialWorkingSetWithinCapacityAllHits)
{
    const auto [capacity, ways] = GetParam();
    CacheModel cache("c", capacity, 128, ways);
    for (Addr a = 0; a < capacity; a += 128)
        cache.access(a, false);
    cache.resetStats();
    for (Addr a = 0; a < capacity; a += 128)
        ASSERT_TRUE(cache.access(a, false).hit) << "addr " << a;
}

TEST_P(CacheCapacity, DoubleCapacityStreamEvicts)
{
    const auto [capacity, ways] = GetParam();
    CacheModel cache("c", capacity, 128, ways);
    for (Addr a = 0; a < 2 * capacity; a += 128)
        cache.access(a, false);
    cache.resetStats();
    std::uint64_t hits = 0;
    for (Addr a = 0; a < 2 * capacity; a += 128)
        hits += cache.access(a, false).hit ? 1 : 0;
    EXPECT_LT(hits, 2 * capacity / 128);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheCapacity,
    ::testing::Values(std::make_pair(std::uint64_t(16 * KiB), 4u),
                      std::make_pair(std::uint64_t(64 * KiB), 16u),
                      std::make_pair(std::uint64_t(6 * MiB), 16u)));

TEST(CacheModel, Table1L2Configuration)
{
    // 6 MB, 128 B lines, 16 ways: the V100 L2 of Table 1 constructs.
    CacheModel l2("l2", 6 * MiB, 128, 16);
    EXPECT_EQ(l2.capacityBytes(), 6 * MiB);
    EXPECT_EQ(l2.lineBytes(), 128u);
}

TEST(CacheModelDeathTest, ZeroWaysIsRejectedBeforeDividing)
{
    EXPECT_DEATH(CacheModel("l2", 16 * KiB, 128, 0), "associativity");
}

TEST(CacheModelDeathTest, ZeroLineSizeIsRejectedBeforeDividing)
{
    EXPECT_DEATH(CacheModel("l2", 16 * KiB, 0, 4), "line size");
}

TEST(CacheModelDeathTest, MoreThanSixtyFourWaysIsRejected)
{
    EXPECT_DEATH(CacheModel("l2", 128 * 128, 128, 128), "64-way");
}

TEST(CacheModel, SixtyFourWaysFillEveryWayBeforeEvicting)
{
    CacheModel cache("l2", 64 * 128, 128, 64); // one set, 64 ways
    for (Addr a = 0; a < 64 * 128; a += 128)
        EXPECT_FALSE(cache.access(a, true).hit);
    for (Addr a = 0; a < 64 * 128; a += 128)
        EXPECT_TRUE(cache.contains(a));
    // The 65th line evicts line 0, the least recently used, dirty.
    EXPECT_EQ(cache.access(64 * 128, false).writebackBytes, 128u);
    EXPECT_FALSE(cache.contains(0));
}

TEST(CacheModel, InvalidatePageStraddlingTwoTagWindows)
{
    // 24 sets: a 4 KB page (32 lines) spans two tag windows.
    CacheModel cache("l2", 24 * 4 * 128, 128, 4);
    for (Addr a = 4096; a < 8192; a += 128)
        cache.access(a, true);
    EXPECT_EQ(cache.invalidatePage(4096, 4096), 4096u);
    for (Addr a = 4096; a < 8192; a += 128)
        EXPECT_FALSE(cache.contains(a));
    EXPECT_EQ(cache.invalidatePage(4096, 4096), 0u);
}

/**
 * Reference L2: one most-recent-first std::list per set, no way
 * indices, no masks, no resident counts. A miss in a full set evicts
 * the list's tail.
 */
class RefCache
{
  public:
    RefCache(std::uint64_t capacity, std::uint32_t line, std::uint32_t ways)
        : line_(line), ways_(ways), sets_(capacity / line / ways)
    {}

    CacheResult
    access(Addr addr, bool is_write)
    {
        const std::uint64_t l = addr / line_;
        std::list<Entry>& set = sets_[l % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == l) {
                Entry e = *it;
                e.dirty |= is_write;
                set.erase(it);
                set.push_front(e);
                ++hits;
                return {true, 0};
            }
        }
        ++misses;
        CacheResult result{false, 0};
        if (set.size() == ways_) {
            ++evictions;
            if (set.back().dirty) {
                ++writebacks;
                result.writebackBytes = line_;
            }
            set.pop_back();
        }
        set.push_front({l, is_write});
        return result;
    }

    bool
    contains(Addr addr) const
    {
        const std::uint64_t l = addr / line_;
        for (const Entry& e : sets_[l % sets_.size()])
            if (e.line == l)
                return true;
        return false;
    }

    std::uint64_t
    invalidatePage(Addr base, std::uint64_t bytes)
    {
        std::uint64_t writeback = 0;
        for (std::uint64_t l = base / line_; l < (base + bytes) / line_;
             ++l) {
            std::list<Entry>& set = sets_[l % sets_.size()];
            for (auto it = set.begin(); it != set.end(); ++it) {
                if (it->line == l) {
                    if (it->dirty) {
                        ++writebacks;
                        writeback += line_;
                    }
                    set.erase(it);
                    break;
                }
            }
        }
        return writeback;
    }

    std::uint64_t
    flushAll()
    {
        std::uint64_t writeback = 0;
        for (std::list<Entry>& set : sets_) {
            for (const Entry& e : set) {
                if (e.dirty) {
                    ++writebacks;
                    writeback += line_;
                }
            }
            set.clear();
        }
        return writeback;
    }

    /** Distinct tag windows (line / sets) among the resident lines. */
    std::size_t
    residentWindows() const
    {
        std::set<std::uint64_t> windows;
        for (const std::list<Entry>& set : sets_)
            for (const Entry& e : set)
                windows.insert(e.line / sets_.size());
        return windows.size();
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Entry
    {
        std::uint64_t line;
        bool dirty;
    };

    std::uint32_t line_;
    std::uint32_t ways_;
    std::vector<std::list<Entry>> sets_;
};

struct OracleShape
{
    const char* name;
    std::uint64_t capacity;
    std::uint32_t ways;
};

void
PrintTo(const OracleShape& shape, std::ostream* os)
{
    *os << shape.name;
}

class CacheOracle : public ::testing::TestWithParam<OracleShape>
{};

void
expectSameCounters(const CacheModel& cache, const RefCache& ref,
                   std::size_t op)
{
    StatSet stats;
    cache.exportStats(stats);
    EXPECT_EQ(cache.hits(), ref.hits) << "op " << op;
    EXPECT_EQ(cache.misses(), ref.misses) << "op " << op;
    EXPECT_EQ(stats.get("l2.evictions"), static_cast<double>(ref.evictions))
        << "op " << op;
    EXPECT_EQ(stats.get("l2.writebacks"),
              static_cast<double>(ref.writebacks))
        << "op " << op;
}

TEST_P(CacheOracle, SeededSequencesMatchTheReference)
{
    const OracleShape shape = GetParam();
    constexpr std::uint32_t line = 128;
    constexpr std::uint64_t span = 8 * MiB;
    const std::uint64_t pages[] = {4 * KiB, 64 * KiB, 2 * MiB};

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        auto cache = std::make_unique<CacheModel>("l2", shape.capacity,
                                                  line, shape.ways);
        RefCache ref(shape.capacity, line, shape.ways);
        // A hot window that moves now and then keeps the hit rate and
        // the number of resident lines per invalidated page up.
        Addr hot = 0;
        const std::uint64_t hot_bytes = 2 * shape.capacity;
        for (std::size_t op = 0; op < 20000; ++op) {
            const std::uint64_t pick = rng.below(1000);
            if (pick < 850) {
                if (rng.below(500) == 0)
                    hot = rng.below(span / (64 * KiB)) * (64 * KiB);
                const Addr addr =
                    rng.below(4) == 0 ? rng.below(span)
                                      : hot + rng.below(hot_bytes);
                const bool write = rng.below(2) == 0;
                const CacheResult got = cache->access(addr, write);
                const CacheResult want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << "op " << op;
                ASSERT_EQ(got.writebackBytes, want.writebackBytes)
                    << "op " << op;
                ASSERT_TRUE(cache->contains(addr)) << "op " << op;
            } else if (pick < 992) {
                const std::uint64_t page = pages[rng.below(3)];
                // Mostly pages near the hot window, so lines are there.
                const Addr near = rng.below(2) == 0 ? hot : rng.below(span);
                const Addr base = near / page * page;
                ASSERT_EQ(cache->invalidatePage(base, page),
                          ref.invalidatePage(base, page))
                    << "op " << op;
                for (int i = 0; i < 8; ++i) {
                    const Addr probe = base + rng.below(page);
                    ASSERT_FALSE(cache->contains(probe)) << "op " << op;
                }
            } else if (pick < 996) {
                ASSERT_EQ(cache->flushAll(), ref.flushAll()) << "op " << op;
            } else {
                // Round-trip through a snapshot into a fresh instance
                // and carry on with the restored one.
                snapshot::Serializer out;
                cache->saveState(out);
                auto restored = std::make_unique<CacheModel>(
                    "l2", shape.capacity, line, shape.ways);
                snapshot::Deserializer in(out.bytes());
                restored->restoreState(in);
                snapshot::Serializer again;
                restored->saveState(again);
                ASSERT_EQ(again.bytes(), out.bytes()) << "op " << op;
                cache = std::move(restored);
            }
            for (int i = 0; i < 4; ++i) {
                const Addr probe = hot + rng.below(hot_bytes);
                ASSERT_EQ(cache->contains(probe), ref.contains(probe))
                    << "op " << op;
            }
            expectSameCounters(*cache, ref, op);
            // The resident-window table must track exactly the windows
            // with a valid line: no under-count (skipped invalidations),
            // no stale entries (memory growing with every tag seen).
            if (op % 500 == 499 || pick >= 992) {
                ASSERT_EQ(cache->residentWindows(), ref.residentWindows())
                    << "op " << op;
            }
            if (HasFailure())
                return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Values(
        // 32 sets: pages cover whole tag windows.
        OracleShape{"Sets32Ways4", 16 * KiB, 4},
        // 24 sets: every page straddles tag windows.
        OracleShape{"Sets24Ways4", 24 * 4 * 128, 4},
        // 3 sets of 64 ways: full way masks.
        OracleShape{"Sets3Ways64", 3 * 64 * 128, 64},
        // Table 1 L2: 3072 sets, 16 ways; a 2 MB page spans 5-6 windows.
        OracleShape{"Table1", 6 * MiB, 16}),
    [](const ::testing::TestParamInfo<OracleShape>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace gps
