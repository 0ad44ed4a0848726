/**
 * @file
 * Set-associative TLB model with true-LRU replacement.
 *
 * Used in two places: the per-GPU last-level conventional TLB (whose misses
 * feed the GPS access tracking unit) and the small GPS-TLB inside the GPS
 * address translation unit (Table 1: 32 entries, 8-way).
 */

#ifndef GPS_MEM_TLB_HH
#define GPS_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Set-associative translation lookaside buffer (tag-only model). */
class Tlb : public SimObject
{
  public:
    /**
     * @param name component name
     * @param entries total entries; must be a multiple of @p ways
     * @param ways associativity
     */
    Tlb(std::string name, std::size_t entries, std::size_t ways);

    /**
     * Probe for @p vpn, updating LRU on hit.
     * @return true on hit.
     */
    bool lookup(PageNum vpn);

    /** Insert @p vpn, evicting the set's LRU entry if needed. */
    void fill(PageNum vpn);

    /** Probe without inserting and without stats/LRU effects. */
    bool contains(PageNum vpn) const;

    /** Invalidate one translation (TLB shootdown target). */
    void invalidate(PageNum vpn);

    /** Invalidate everything. */
    void invalidateAll();

    std::size_t entries() const { return sets_ * ways_; }
    std::size_t ways() const { return ways_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Hit fraction over all lookups (0 when never probed). */
    double hitRate() const;

    /**
     * Every entry, the LRU clock, and the counters; geometry must match
     * this instance.
     */
    void
    transferState(snapshot::StateIO& io)
    {
        io.section("tlb");
        const char* geometry =
            "snapshot TLB geometry differs from the configured TLB";
        io.expect(sets_, geometry);
        io.expect(ways_, geometry);
        for (Entry& e : entries_) {
            io.u64(e.vpn);
            io.b(e.valid);
            io.u64(e.lastUse);
        }
        io.u64(useClock_);
        io.u64(hits_);
        io.u64(misses_);
        io.u64(evictions_);
        io.u64(shootdowns_);
    }

  private:
    void declareStats(StatVisitor& v) const override;

    struct Entry
    {
        PageNum vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setIndex(PageNum vpn) const { return vpn % sets_; }

    std::size_t sets_;
    std::size_t ways_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t shootdowns_ = 0;
};

} // namespace gps

#endif // GPS_MEM_TLB_HH
