/**
 * @file
 * Dense per-region storage for driver page state.
 *
 * Regions are allocated page-aligned and contiguous by the bump
 * allocator in AddressSpace, so per-page driver state lives in one
 * contiguous array per region ("slab") indexed by vpn - slab.first.
 * This replaces an unordered_map<PageNum, PageState> on the replay hot
 * path: a state lookup is one slab hit-check plus an array index
 * instead of a hash, and iteration walks cache-line-packed records in
 * ascending VPN order.
 */

#ifndef GPS_DRIVER_PAGE_STATE_STORE_HH
#define GPS_DRIVER_PAGE_STATE_STORE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "driver/page_state.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Per-region contiguous arrays of PageState, keyed by first VPN. */
class PageStateStore
{
  public:
    /**
     * Register the pages [first, first + count) with state @p init.
     * The range must not overlap an existing slab (the VA allocator
     * guarantees this by construction).
     */
    void
    addRange(PageNum first, std::size_t count, const PageState& init)
    {
        gps_assert(count > 0, "empty page-state range");
        Slab slab;
        slab.first = first;
        slab.states.assign(count, init);
        // Slabs arrive in ascending VA order from the bump allocator;
        // keep the vector sorted for the binary-search fallback anyway.
        auto it = std::upper_bound(slabs_.begin(), slabs_.end(),
                                   slab.first,
                                   [](PageNum vpn, const Slab& s) {
                                       return vpn < s.first;
                                   });
        slabs_.insert(it, std::move(slab));
        pages_ += count;
        hint_ = 0;
    }

    /** Drop the slab that starts exactly at @p first. */
    void
    removeRange(PageNum first)
    {
        auto it = std::find_if(slabs_.begin(), slabs_.end(),
                               [first](const Slab& s) {
                                   return s.first == first;
                               });
        gps_assert(it != slabs_.end(),
                   "removing unknown page-state range at ", first);
        pages_ -= it->states.size();
        slabs_.erase(it);
        hint_ = 0;
    }

    /** State of @p vpn, or nullptr when the page is not allocated. */
    PageState*
    find(PageNum vpn)
    {
        // Hot path: most consecutive lookups land in the same slab.
        if (hint_ < slabs_.size()) {
            Slab& s = slabs_[hint_];
            if (vpn >= s.first && vpn - s.first < s.states.size())
                return &s.states[vpn - s.first];
        }
        // upper_bound: first slab with first > vpn; the candidate is
        // the one before it.
        auto it = std::upper_bound(slabs_.begin(), slabs_.end(), vpn,
                                   [](PageNum v, const Slab& s) {
                                       return v < s.first;
                                   });
        if (it == slabs_.begin())
            return nullptr;
        --it;
        const std::size_t off = vpn - it->first;
        if (off >= it->states.size())
            return nullptr;
        hint_ = static_cast<std::size_t>(it - slabs_.begin());
        return &it->states[off];
    }

    const PageState*
    find(PageNum vpn) const
    {
        return const_cast<PageStateStore*>(this)->find(vpn);
    }

    /** State of @p vpn; panics when the page is not allocated. */
    PageState&
    at(PageNum vpn)
    {
        PageState* st = find(vpn);
        gps_assert(st != nullptr, "no page state for vpn ", vpn);
        return *st;
    }

    const PageState&
    at(PageNum vpn) const
    {
        return const_cast<PageStateStore*>(this)->at(vpn);
    }

    /** Total pages across all live slabs. */
    std::size_t pages() const { return pages_; }

    /** Visit every (vpn, state) pair in ascending VPN order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Slab& slab : slabs_)
            for (std::size_t i = 0; i < slab.states.size(); ++i)
                fn(slab.first + i, slab.states[i]);
    }

    /** Number of live slabs (== live regions). */
    std::size_t ranges() const { return slabs_.size(); }

    /**
     * Every slab with its full per-page records; loading replaces the
     * current contents.
     */
    void
    transferState(snapshot::StateIO& io)
    {
        io.section("pagestate");
        slabs_.resize(io.count(slabs_.size(), 1ULL << 24));
        std::size_t pages = 0;
        for (Slab& slab : slabs_) {
            io.u64(slab.first);
            slab.states.resize(io.count(slab.states.size(), 1ULL << 32));
            for (PageState& st : slab.states) {
                io.as<std::uint8_t>(st.kind);
                io.as<std::uint32_t>(st.location);
                maskState(io, st.mapped);
                maskState(io, st.backed);
                io.as<std::uint32_t>(st.preferredLocation);
                maskState(io, st.accessedBy);
                io.b(st.readMostly);
                maskState(io, st.readCopies);
                io.as<std::uint32_t>(st.lastWriter);
                io.b(st.dirtySinceBarrier);
                maskState(io, st.subscribers);
                io.b(st.gpsBitSet);
                io.b(st.collapsed);
            }
            pages += slab.states.size();
        }
        if (io.loading()) {
            pages_ = pages;
            hint_ = 0;
        }
    }

  private:
    struct Slab
    {
        PageNum first = 0;
        std::vector<PageState> states;
    };

    /** Sorted by first VPN; ranges never overlap. */
    std::vector<Slab> slabs_;

    /** Index of the slab the last successful find() hit. */
    std::size_t hint_ = 0;

    std::size_t pages_ = 0;
};

} // namespace gps

#endif // GPS_DRIVER_PAGE_STATE_STORE_HH
