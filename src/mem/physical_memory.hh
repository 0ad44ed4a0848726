/**
 * @file
 * Per-GPU physical memory: a page-frame allocator over the GPU's local
 * DRAM. GPS replication allocates one frame per subscriber, so frame
 * accounting per GPU matters for the oversubscription path.
 */

#ifndef GPS_MEM_PHYSICAL_MEMORY_HH
#define GPS_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/page.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Page-frame allocator for one GPU's local DRAM. */
class PhysicalMemory : public SimObject
{
  public:
    /**
     * @param name component name for stats
     * @param capacity_bytes DRAM capacity
     * @param geometry page geometry; capacity must be page aligned
     */
    PhysicalMemory(std::string name, std::uint64_t capacity_bytes,
                   PageGeometry geometry);

    /**
     * Allocate one physical frame.
     * @return the frame's PPN, or nullopt when memory is exhausted.
     */
    std::optional<PageNum> allocFrame();

    /** Release a previously allocated frame. */
    void freeFrame(PageNum ppn);

    /** Whether @p ppn is currently allocated. */
    bool allocated(PageNum ppn) const;

    /**
     * Permanently take up to @p count free frames out of service (fault
     * injection: frames lost to hardware retirement). Frames in use are
     * never retired.
     * @return the number of frames actually retired.
     */
    std::uint64_t retireFrames(std::uint64_t count);

    /** Frames permanently retired by fault injection. */
    std::uint64_t framesRetired() const { return framesRetired_; }

    std::uint64_t capacityBytes() const { return capacityBytes_; }
    std::uint64_t totalFrames() const { return totalFrames_; }
    std::uint64_t framesInUse() const { return framesInUse_; }
    std::uint64_t framesFree() const { return totalFrames_ - framesInUse_; }

    /** Frames the device held before any retirement. */
    std::uint64_t initialFrames() const { return initialFrames_; }

    /**
     * Frames allocFrame could still hand out: the recycled free list
     * plus the untouched tail of the bump region. Invariant-checked
     * against framesFree() — the two must always agree.
     */
    std::uint64_t allocatableFrames() const
    {
        return freeList_.size() + (bumpLimit_ - bumpNext_);
    }

    const PageGeometry& geometry() const { return geometry_; }

    /**
     * The full allocator state: frame ledger, bump region, free list,
     * and allocation bitmap; capacity must match this instance.
     */
    void
    transferState(snapshot::StateIO& io)
    {
        io.section("physmem");
        io.expect(capacityBytes_, "snapshot memory capacity differs from "
                                  "the configured device");
        io.u64(totalFrames_);
        io.expect(initialFrames_, "snapshot initial frame count differs "
                                  "from the configured device");
        io.u64(framesInUse_);
        io.u64(peakFramesInUse_);
        io.u64(framesRetired_);
        io.u64(bumpNext_);
        io.u64(bumpLimit_);
        io.u64s(freeList_, initialFrames_);
        inUse_.resize(io.count(inUse_.size(), initialFrames_));
        for (std::size_t i = 0; i < inUse_.size(); ++i) {
            bool used = inUse_[i];
            io.b(used);
            inUse_[i] = used;
        }
    }

  private:
    void declareStats(StatVisitor& v) const override;

    std::uint64_t capacityBytes_;
    PageGeometry geometry_;
    std::uint64_t totalFrames_;
    std::uint64_t initialFrames_;
    std::uint64_t framesInUse_ = 0;
    std::uint64_t peakFramesInUse_ = 0;
    std::uint64_t framesRetired_ = 0;

    /** Next never-used frame (bump allocation). */
    PageNum bumpNext_ = 0;

    /**
     * End of the bump region. Kept separate from totalFrames_ so that
     * retiring a recycled (free-list) frame does not also shrink the
     * never-used region — totalFrames_ counts capacity, bumpLimit_
     * bounds frame numbers.
     */
    PageNum bumpLimit_;

    /** Recycled frames. */
    std::vector<PageNum> freeList_;

    /** Allocation bitmap, grown lazily. */
    std::vector<bool> inUse_;
};

} // namespace gps

#endif // GPS_MEM_PHYSICAL_MEMORY_HH
