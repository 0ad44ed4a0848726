/**
 * @file
 * Per-GPU model: memory-side structures (L2, TLB, SM store coalescer,
 * physical memory) plus the service demands of the analytic kernel
 * timing formula (gpu/kernel_timing.hh).
 *
 * Timing abstraction: a kernel's duration is the maximum of its bottleneck
 * terms (issue throughput, L2 throughput, local DRAM bandwidth, TLB page
 * walks) plus remote demand-load round trips and serialized terms that
 * stall the GPU outright (page-fault handling, TLB shootdowns).
 * Interconnect bandwidth terms are applied at phase level by the runner,
 * which knows the full traffic matrix of concurrently executing kernels.
 */

#ifndef GPS_GPU_GPU_MODEL_HH
#define GPS_GPU_GPU_MODEL_HH

#include <memory>
#include <string>

#include "cache/cache_model.hh"
#include "common/types.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_counters.hh"
#include "gpu/kernel_timing.hh"
#include "gpu/store_coalescer.hh"
#include "interconnect/pcie.hh"
#include "mem/page.hh"
#include "mem/physical_memory.hh"
#include "mem/tlb.hh"
#include "sim/sim_object.hh"

namespace gps
{

/** Timing constants for driver-level events charged to kernels. */
struct FaultTiming
{
    /** End-to-end GPU page fault handling latency. */
    Tick faultLatency = usToTicks(25.0);

    /** Faults the driver resolves concurrently (batching). */
    std::uint32_t faultConcurrency = 8;

    /** Cost of one TLB shootdown round. */
    Tick shootdownLatency = usToTicks(3.0);

    /** Concurrent conventional page walkers. */
    std::uint32_t walkConcurrency = 8;
};

/** The kernel-time formula's constants for GPUs @p gpu on @p link. */
TimingConstants timingConstants(const GpuConfig& gpu,
                                const InterconnectSpec& link);

/** One GPU of the simulated system. */
class GpuModel : public SimObject
{
  public:
    GpuModel(GpuId id, const GpuConfig& config, PageGeometry geometry);

    GpuId id() const { return id_; }
    const GpuConfig& config() const { return config_; }

    CacheModel& l2() { return *l2_; }
    const CacheModel& l2() const { return *l2_; }
    Tlb& tlb() { return *tlb_; }
    const Tlb& tlb() const { return *tlb_; }
    StoreCoalescer& storeCoalescer() { return *coalescer_; }
    PhysicalMemory& memory() { return *memory_; }
    const PhysicalMemory& memory() const { return *memory_; }

    /**
     * Drive one access through the local L2 towards DRAM, updating
     * @p counters (hits/misses/DRAM bytes).
     */
    void l2Path(Addr addr, bool is_write, KernelCounters& counters);

    /**
     * Model the conventional TLB for @p vpn: on a miss the entry is
     * filled and the miss counted (page-walk cost lands in timing).
     * @return true if the access missed (used by the GPS access tracker).
     */
    bool tlbAccess(PageNum vpn, KernelCounters& counters);

    /**
     * The timing record of a kernel with the given event counts: its
     * service demands, remote batch counts and serialized terms (the
     * runner adds the link terms and gpuTime).
     */
    KernelTiming kernelTiming(const KernelCounters& counters) const;

    const FaultTiming& faultTiming() const { return faultTiming_; }

    /** L2, TLB, coalescer, and physical-memory state. */
    void
    transferState(snapshot::StateIO& io)
    {
        io.section("gpu");
        GpuId id = id_;
        io.as<std::uint32_t>(id);
        if (id != id_)
            throw snapshot::SnapshotError(
                "snapshot GPU id differs from the configured GPU");
        l2_->transferState(io);
        tlb_->transferState(io);
        coalescer_->transferState(io);
        memory_->transferState(io);
    }

  private:
    void declareStats(StatVisitor& v) const override;

    GpuId id_;
    GpuConfig config_;
    FaultTiming faultTiming_;
    std::unique_ptr<CacheModel> l2_;
    std::unique_ptr<Tlb> tlb_;
    std::unique_ptr<StoreCoalescer> coalescer_;
    std::unique_ptr<PhysicalMemory> memory_;
};

} // namespace gps

#endif // GPS_GPU_GPU_MODEL_HH
