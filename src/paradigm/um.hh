/**
 * @file
 * Baseline Unified Memory paradigm: fault-based page migration, no hints.
 */

#ifndef GPS_PARADIGM_UM_HH
#define GPS_PARADIGM_UM_HH

#include <unordered_set>

#include "driver/um_engine.hh"
#include "paradigm/paradigm.hh"

namespace gps
{

/** UM without hints: every remote touch faults and migrates the page. */
class UmParadigm : public Paradigm
{
  public:
    explicit UmParadigm(MultiGpuSystem& system, std::string name = "um")
        : Paradigm(std::move(name), system), engine_(system.driver())
    {}

    ParadigmKind kind() const override { return ParadigmKind::Um; }
    MemKind sharedKind() const override { return MemKind::Managed; }

    Tick atBarrier(KernelCounters& counters,
                   TrafficMatrix& barrier_traffic) override;

    void
    transferState(snapshot::StateIO& io) override
    {
        io.section("paradigm:um");
        transferDirtyPages(io, dirtyPages_);
    }

  protected:
    void accessShared(GpuId gpu, const MemAccess& access, PageNum vpn,
                      PageState& st, bool tlb_miss,
                      KernelCounters& counters,
                      TrafficMatrix& traffic) override;

    /** Hint-awareness toggle for the derived UM+hints paradigm. */
    virtual bool hintsMode() const { return false; }

    UmEngine& engine() { return engine_; }

  private:
    UmEngine engine_;

    /** Pages written since the last barrier (stale in peer caches). */
    std::unordered_set<PageNum> dirtyPages_;
};

} // namespace gps

#endif // GPS_PARADIGM_UM_HH
