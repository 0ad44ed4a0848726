#include "mem/tlb.hh"

#include "common/logging.hh"

namespace gps
{

Tlb::Tlb(std::string name, std::size_t entries, std::size_t ways)
    : SimObject(std::move(name)), sets_(entries / ways), ways_(ways),
      entries_(entries)
{
    gps_assert(ways > 0 && entries % ways == 0,
               "TLB entries (", entries, ") not a multiple of ways (", ways,
               ")");
    gps_assert(sets_ > 0, "TLB must have at least one set");
}

bool
Tlb::lookup(PageNum vpn)
{
    Entry* set = &entries_[setIndex(vpn) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            set[w].lastUse = ++useClock_;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

void
Tlb::fill(PageNum vpn)
{
    Entry* set = &entries_[setIndex(vpn) * ways_];
    Entry* victim = &set[0];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            // Already present (e.g. racing fill); refresh LRU only.
            set[w].lastUse = ++useClock_;
            return;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    if (victim->valid)
        ++evictions_;
    victim->valid = true;
    victim->vpn = vpn;
    victim->lastUse = ++useClock_;
}

bool
Tlb::contains(PageNum vpn) const
{
    const Entry* set = &entries_[setIndex(vpn) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].vpn == vpn)
            return true;
    }
    return false;
}

void
Tlb::invalidate(PageNum vpn)
{
    Entry* set = &entries_[setIndex(vpn) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            set[w].valid = false;
            ++shootdowns_;
            return;
        }
    }
}

void
Tlb::invalidateAll()
{
    for (auto& e : entries_)
        e.valid = false;
    ++shootdowns_;
}

double
Tlb::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

void
Tlb::declareStats(StatVisitor& v) const
{
    v.counter("hits", "events", hits_);
    v.counter("misses", "events", misses_);
    v.counter("evictions", "events", evictions_);
    v.counter("shootdowns", "events", shootdowns_);
    v.gauge("hit_rate", "ratio", [this] { return hitRate(); });
}

} // namespace gps
