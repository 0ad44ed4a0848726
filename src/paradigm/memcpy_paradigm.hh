/**
 * @file
 * Bulk-synchronous memcpy paradigm: every shared structure is replicated
 * on every GPU; the programmer's update set is broadcast with
 * cudaMemcpy-style DMA at each barrier, with no compute/transfer overlap
 * (Section 6).
 *
 * Workloads declare their update set per phase (Phase::barrierBroadcasts,
 * e.g. halo rows for a stencil); when a phase declares none, the paradigm
 * falls back to broadcasting every page dirtied since the last barrier.
 */

#ifndef GPS_PARADIGM_MEMCPY_PARADIGM_HH
#define GPS_PARADIGM_MEMCPY_PARADIGM_HH

#include <unordered_set>
#include <vector>

#include "paradigm/paradigm.hh"

namespace gps
{

/** Replicate everything; broadcast the update set at barriers. */
class MemcpyParadigm : public Paradigm
{
  public:
    explicit MemcpyParadigm(MultiGpuSystem& system,
                            std::string name = "memcpy")
        : Paradigm(std::move(name), system)
    {}

    ParadigmKind kind() const override { return ParadigmKind::Memcpy; }
    MemKind sharedKind() const override { return MemKind::Replicated; }

    Tick beginPhase(const Phase& phase, KernelCounters& counters,
                    TrafficMatrix& prefetch_traffic) override;

    Tick atBarrier(KernelCounters& counters,
                   TrafficMatrix& barrier_traffic) override;

    /** Bytes the most recent barrier broadcast (pre-replication). */
    std::uint64_t broadcastBytesLastBarrier() const
    {
        return lastBarrierBytes_;
    }

    void
    transferState(snapshot::StateIO& io) override
    {
        io.section("paradigm:memcpy");
        pendingBroadcasts_.resize(
            io.count(pendingBroadcasts_.size(), 1ULL << 24));
        for (BroadcastRange& r : pendingBroadcasts_) {
            io.as<std::uint32_t>(r.src);
            io.u64(r.base);
            io.u64(r.len);
        }
        transferDirtyPages(io, dirtyPages_);
        io.u64(lastBarrierBytes_);
    }

  protected:
    void accessShared(GpuId gpu, const MemAccess& access, PageNum vpn,
                      PageState& st, bool tlb_miss,
                      KernelCounters& counters,
                      TrafficMatrix& traffic) override;

    /** Whether barrier DMA consumes interconnect time (Infinite: no). */
    virtual bool transfersCost() const { return true; }

    /**
     * Per-cudaMemcpyAsync launch overhead. Copies from different source
     * GPUs issue from different host threads/streams, so only the
     * longest per-source launch chain serializes with the barrier.
     */
    static constexpr Tick memcpyOverhead = usToTicks(2.0);

  private:
    std::vector<BroadcastRange> pendingBroadcasts_;
    std::unordered_set<PageNum> dirtyPages_;
    std::uint64_t lastBarrierBytes_ = 0;
};

} // namespace gps

#endif // GPS_PARADIGM_MEMCPY_PARADIGM_HH
