/**
 * @file
 * GPU driver model.
 *
 * Exposes the CUDA-like allocation and hint API the paper's programming
 * interface builds on (Section 4) and owns the mechanisms every paradigm
 * composes: physical backing, peer mappings, page migration with TLB
 * shootdowns, and the per-page policy state. Policy itself (when to fault,
 * migrate, subscribe, broadcast) lives in the paradigm classes.
 */

#ifndef GPS_DRIVER_DRIVER_HH
#define GPS_DRIVER_DRIVER_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/gpu_mask.hh"
#include "common/types.hh"
#include "driver/page_state.hh"
#include "driver/page_state_store.hh"
#include "gpu/gpu_model.hh"
#include "gpu/kernel_counters.hh"
#include "interconnect/topology.hh"
#include "mem/address_space.hh"
#include "mem/page_table.hh"
#include "sim/sim_object.hh"

namespace gps
{

/** The multi-GPU driver: allocation API plus page-management mechanics. */
class Driver : public SimObject
{
  public:
    /**
     * @param probes observers fed by page migrations: an instant on the
     *        driver track, per-page migration heat, and a
     *        migration->stall causal edge
     */
    Driver(AddressSpace& vas,
           std::vector<std::unique_ptr<GpuModel>>& gpus,
           Topology& topology, const Probes* probes);

    // ------------------------------------------------------------------
    // Allocation API (cudaMalloc / cudaMallocManaged / cudaMallocGPS).
    // ------------------------------------------------------------------

    /** cudaMalloc: pinned on @p home, peer-mapped everywhere. */
    const Region& malloc(std::uint64_t size, GpuId home,
                         std::string label);

    /** cudaMallocManaged: unbacked until first touch. */
    const Region& mallocManaged(std::uint64_t size, std::string label,
                                GpuId home = 0);

    /**
     * cudaMallocGPS: GPS address space; backed on @p home so there is
     * always at least one subscriber (Section 4).
     * @param manual subscriptions managed explicitly via memAdvise
     */
    const Region& mallocGps(std::uint64_t size, std::string label,
                            GpuId home, bool manual = false);

    /** Replicated allocation used by RDL/memcpy-style paradigms. */
    const Region& mallocReplicated(std::uint64_t size, std::string label,
                                   GpuId home);

    /** cudaFree: releases frames, mappings and VA. */
    void free(Addr base);

    // ------------------------------------------------------------------
    // UM hints (cuMemAdvise analogues).
    // ------------------------------------------------------------------
    void advisePreferredLocation(Addr base, std::uint64_t len, GpuId gpu);
    void adviseAccessedBy(Addr base, std::uint64_t len, GpuId gpu);
    void adviseReadMostly(Addr base, std::uint64_t len);

    // ------------------------------------------------------------------
    // State access.
    // ------------------------------------------------------------------
    PageState& state(PageNum vpn) { return pages_.at(vpn); }
    const PageState& state(PageNum vpn) const { return pages_.at(vpn); }
    bool hasState(PageNum vpn) const { return pages_.find(vpn) != nullptr; }

    /** State of @p vpn, or nullptr when unallocated (hot-path form). */
    PageState* findState(PageNum vpn) { return pages_.find(vpn); }

    /** Dense page-state store (snapshot/verification traversal). */
    const PageStateStore& pageStates() const { return pages_; }

    const Region* regionOf(Addr addr) const { return vas_->regionOf(addr); }
    const AddressSpace& addressSpace() const { return *vas_; }

    PageTable& pageTable(GpuId gpu) { return *pageTables_.at(gpu); }
    GpuModel& gpu(GpuId gpu) { return *(*gpus_)[gpu]; }
    std::size_t numGpus() const { return gpus_->size(); }
    Topology& topology() { return *topology_; }
    const PageGeometry& geometry() const { return vas_->geometry(); }
    std::uint64_t pageBytes() const { return geometry().bytes(); }

    /** All GPUs in the system as a mask. */
    GpuMask allGpusMask() const { return maskAll(numGpus()); }

    // ------------------------------------------------------------------
    // Mechanisms.
    // ------------------------------------------------------------------

    /**
     * Hook invoked when @p gpu runs out of frames; returns true after
     * freeing at least one frame (e.g. by swapping out a GPS replica
     * and unsubscribing its holder, Section 5.3). Installed by the
     * subscription manager.
     */
    using ReclaimHook = std::function<bool(GpuId)>;

    /** Install (or clear, with nullptr) the oversubscription hook. */
    void setReclaimHook(ReclaimHook hook) { reclaim_ = std::move(hook); }

    /** Frames reclaimed through the hook so far. */
    std::uint64_t reclaims() const { return reclaims_; }

    /**
     * Allocate a frame for @p vpn on @p gpu and install a local mapping.
     * On exhaustion the reclaim hook (if any) is given one chance to
     * free a frame before the request fails.
     * @return false when @p gpu is out of physical memory.
     */
    bool backPage(PageNum vpn, GpuId gpu);

    /** Install a peer mapping on @p gpu pointing at @p owner's copy. */
    void mapPeer(PageNum vpn, GpuId gpu, GpuId owner);

    /** Remove @p gpu's mapping (with a TLB shootdown if present). */
    void unmapPage(PageNum vpn, GpuId gpu, KernelCounters* counters);

    /** Free @p gpu's replica: unmap plus frame release. */
    void unbackPage(PageNum vpn, GpuId gpu, KernelCounters* counters);

    /**
     * Migrate the primary copy of @p vpn to @p to: moves the frame,
     * rewrites mappings, invalidates stale TLB/L2 state and accounts the
     * transfer in @p traffic.
     */
    void migratePage(PageNum vpn, GpuId to, KernelCounters& counters,
                     TrafficMatrix& traffic);

    /** Apply @p fn(vpn) to every page of @p region. */
    template <typename Fn>
    void
    forEachPage(const Region& region, Fn&& fn) const
    {
        const PageGeometry& geo = geometry();
        const PageNum first = geo.pageNum(region.base);
        const PageNum last = geo.pageNum(region.base + region.size - 1);
        for (PageNum vpn = first; vpn <= last; ++vpn)
            fn(vpn);
    }

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize per-GPU page tables, the dense page-state store, and
     * the driver's own counters. The reclaim hook is reinstalled by its
     * owner at reconstruction, not persisted.
     */
    void saveState(snapshot::Serializer& out) const;

    /** Counterpart of saveState. */
    void restoreState(snapshot::Deserializer& in);

  private:
    const Region& allocCommon(std::uint64_t size, MemKind kind,
                              std::string label, GpuId home, bool manual);

    /** Apply @p fn to the state of each page overlapping [base, len). */
    template <typename Fn>
    void
    forEachPageIn(Addr base, std::uint64_t len, Fn&& fn)
    {
        const PageGeometry& geo = geometry();
        const PageNum first = geo.pageNum(base);
        const PageNum last = geo.pageNum(base + len - 1);
        for (PageNum vpn = first; vpn <= last; ++vpn)
            fn(state(vpn));
    }

    AddressSpace* vas_;
    std::vector<std::unique_ptr<GpuModel>>* gpus_;
    Topology* topology_;
    std::vector<std::unique_ptr<PageTable>> pageTables_;

    /** Dense per-region page state (see PageStateStore). */
    PageStateStore pages_;

    ReclaimHook reclaim_;
    std::uint64_t migrations_ = 0;
    std::uint64_t shootdownRounds_ = 0;
    std::uint64_t reclaims_ = 0;
    const Probes* probes_;
};

} // namespace gps

#endif // GPS_DRIVER_DRIVER_HH
