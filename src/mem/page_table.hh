/**
 * @file
 * Conventional per-GPU page table.
 *
 * Each GPU holds its own table mapping virtual page numbers to physical
 * frames. A mapping may point at a frame in *another* GPU's memory (a peer
 * mapping, used by RDL and by non-subscriber accesses to GPS pages). The
 * GPS extension is a single repurposed PTE bit (`gpsBit`) that marks the
 * page as potentially replicated, exactly as in the paper's Section 5.2.
 */

#ifndef GPS_MEM_PAGE_TABLE_HH
#define GPS_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** A conventional page table entry (plus the GPS bit). */
struct Pte
{
    /** Physical frame the virtual page maps to. */
    PageNum ppn = 0;

    /** GPU whose memory holds that frame. */
    GpuId location = invalidGpu;

    /** Repurposed bit: page participates in GPS replication. */
    bool gpsBit = false;

    bool
    operator==(const Pte& other) const
    {
        return ppn == other.ppn && location == other.location &&
               gpsBit == other.gpsBit;
    }
};

/** One GPU's conventional page table. */
class PageTable : public SimObject
{
  public:
    explicit PageTable(std::string name)
        : SimObject(std::move(name))
    {}

    /** Install or replace the mapping for @p vpn. */
    void map(PageNum vpn, const Pte& pte);

    /** Remove the mapping for @p vpn (no-op if absent). */
    void unmap(PageNum vpn);

    /** Mapping for @p vpn, or nullptr when not mapped. */
    const Pte* lookup(PageNum vpn) const;

    /** Mutable access for flag updates; nullptr when not mapped. */
    Pte* lookupMutable(PageNum vpn);

    /** Set or clear the GPS bit; the page must be mapped. */
    void setGpsBit(PageNum vpn, bool value);

    std::size_t size() const { return table_.size(); }

    /** Every mapping, in ascending VPN order, plus the op counters. */
    void
    transferState(snapshot::StateIO& io)
    {
        io.section("pagetable");
        io.sortedKeys(table_, 1ULL << 40, [&io](PageNum& vpn, Pte& pte) {
            io.u64(vpn);
            io.u64(pte.ppn);
            io.as<std::uint32_t>(pte.location);
            io.b(pte.gpsBit);
        });
        io.u64(mapOps_);
        io.u64(unmapOps_);
    }

  private:
    void declareStats(StatVisitor& v) const override;

    std::unordered_map<PageNum, Pte> table_;
    std::uint64_t mapOps_ = 0;
    std::uint64_t unmapOps_ = 0;
};

} // namespace gps

#endif // GPS_MEM_PAGE_TABLE_HH
