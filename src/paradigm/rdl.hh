/**
 * @file
 * Remote Demand Loads (RDL): the expert peer-to-peer baseline. Stores go
 * to local memory; loads are issued to the GPU that most recently stored
 * to the page (oracle writer tracking, Section 6).
 */

#ifndef GPS_PARADIGM_RDL_HH
#define GPS_PARADIGM_RDL_HH

#include <unordered_set>

#include "paradigm/paradigm.hh"

namespace gps
{

/** RDL: local stores, demand loads from each page's last writer. */
class RdlParadigm : public Paradigm
{
  public:
    explicit RdlParadigm(MultiGpuSystem& system)
        : Paradigm("rdl", system)
    {}

    ParadigmKind kind() const override { return ParadigmKind::Rdl; }
    MemKind sharedKind() const override { return MemKind::Replicated; }

    Tick atBarrier(KernelCounters& counters,
                   TrafficMatrix& barrier_traffic) override;

    void
    transferState(snapshot::StateIO& io) override
    {
        io.section("paradigm:rdl");
        transferDirtyPages(io, dirtyPages_);
    }

  protected:
    void accessShared(GpuId gpu, const MemAccess& access, PageNum vpn,
                      PageState& st, bool tlb_miss,
                      KernelCounters& counters,
                      TrafficMatrix& traffic) override;

  private:
    /** Pages rewritten since the last barrier (stale in peer caches). */
    std::unordered_set<PageNum> dirtyPages_;
};

} // namespace gps

#endif // GPS_PARADIGM_RDL_HH
