/**
 * @file
 * The GPS remote write queue (Section 5.2): a fully associative,
 * virtually addressed write-combining buffer at cache-block granularity.
 * Weak stores to the same block coalesce; at the high watermark the least
 * recently *added* entry drains to the GPS address translation unit; the
 * queue drains fully at synchronization points (grid end, sys fences).
 */

#ifndef GPS_CORE_REMOTE_WRITE_QUEUE_HH
#define GPS_CORE_REMOTE_WRITE_QUEUE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "common/types.hh"
#include "core/gps_config.hh"
#include "mem/page.hh"
#include "obs/probes.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** One coalescing buffer entry (one cache block). */
struct WqEntry
{
    /** Line-aligned virtual address. */
    Addr line = 0;

    /** Virtual page the line belongs to. */
    PageNum vpn = 0;

    /** Distinct bytes written so far (capped at the line size). */
    std::uint32_t bytesWritten = 0;

    /** Stores merged into this entry. */
    std::uint32_t mergedStores = 0;

    /**
     * Capacity units the entry occupies: 1 when virtually addressed;
     * the subscriber copy count under the physically-addressed ablation
     * (Section 5.3 discussion).
     */
    std::uint32_t weight = 1;

    /**
     * Insert sequence number (the queue's insert count when the entry
     * was created); the profiler derives drain residency from it.
     */
    std::uint64_t seq = 0;
};

/** Per-GPU remote write queue. */
class RemoteWriteQueue : public SimObject
{
  public:
    /** Called with each entry as it drains toward the interconnect. */
    using DrainFn = std::function<void(const WqEntry&)>;

    /**
     * @param probes observers: full drains and saturation transitions
     *        as timeline events on track @p track at the recorder's
     *        current stamp; occupancy at each new-entry enqueue and
     *        drain residency (in insert operations spanned) for the
     *        profile; insert->drain and saturated-stall causal edges
     */
    RemoteWriteQueue(std::string name, const GpsConfig& config,
                     std::uint32_t line_bytes, PageGeometry geometry,
                     const Probes* probes = &noProbes, int track = 0);

    void setDrainCallback(DrainFn fn) { drain_ = std::move(fn); }

    /**
     * Offer a weak store.
     * @param addr store address
     * @param size store width in bytes
     * @param copies remote subscriber count (weights entries under the
     *        physically-addressed ablation)
     * @return true if the store coalesced into a live entry.
     */
    bool insert(Addr addr, std::uint32_t size, std::uint32_t copies);

    /** Record an atomic that bypassed coalescing (hit-rate accounting). */
    void noteAtomicBypass() { ++atomicBypass_; }

    /** Record a load serviced straight out of the buffer (store forward). */
    void noteForwardHit() { ++forwardHits_; }

    /** Whether the block containing @p addr is buffered (load forward). */
    bool contains(Addr addr) const;

    /** Drain everything (sys fence / end of grid). */
    void drainAll();

    /** Drain only entries of @p vpn (page collapse). */
    void drainPage(PageNum vpn);

    /**
     * Enter/leave the fault-injected Saturated mode: the drain watermark
     * drops to wqEntries / saturatedWatermarkDivisor and every
     * watermark-forced drain counts as an SM stall (stallDrains).
     */
    void setSaturated(bool saturated);
    bool saturated() const { return saturated_; }

    /** Drains forced while saturated (each stalls the producing SM). */
    std::uint64_t stallDrains() const { return stallDrains_; }

    /** Occupancy in capacity units. */
    std::uint32_t occupancy() const { return occupancy_; }

    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t coalesced() const { return coalesced_; }
    std::uint64_t drains() const { return drains_; }
    std::uint64_t atomicBypass() const { return atomicBypass_; }
    std::uint64_t watermarkDrains() const { return watermarkDrains_; }
    std::uint64_t forwardHits() const { return forwardHits_; }

    /** Entries currently resident (inserts == drains + resident). */
    std::uint64_t residentEntries() const { return fifo_.size(); }

    /** Σ entry.weight over resident entries — must equal occupancy(). */
    std::uint64_t weightSum() const
    {
        std::uint64_t sum = 0;
        for (const WqEntry& entry : fifo_)
            sum += entry.weight;
        return sum;
    }

    /** Visit resident entries front (least recently added) to back. */
    template <typename Fn>
    void forEachEntry(Fn&& fn) const
    {
        for (const WqEntry& entry : fifo_)
            fn(entry);
    }

    /**
     * Write-queue hit rate as Figure 14 reports it: coalesced stores
     * over all coalescing-eligible traffic (including atomics, which
     * always miss).
     */
    double hitRate() const;

    /** SRAM footprint: 512 entries * 135 B = ~68 KB (Section 5.2). */
    std::uint64_t sramBytes() const;

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;
    void resetStats();

    /**
     * Serialize resident entries in FIFO order plus all counters; the
     * line index is rebuilt from the FIFO at restore.
     */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("rwq");
        out.u64(fifo_.size());
        for (const WqEntry& e : fifo_) {
            out.u64(e.line);
            out.u64(e.vpn);
            out.u32(e.bytesWritten);
            out.u32(e.mergedStores);
            out.u32(e.weight);
            out.u64(e.seq);
        }
        out.u32(occupancy_);
        out.u64(inserts_);
        out.u64(coalesced_);
        out.u64(drains_);
        out.u64(atomicBypass_);
        out.u64(watermarkDrains_);
        out.u64(forwardHits_);
        out.u64(stallDrains_);
        out.b(saturated_);
    }

    /** Counterpart of saveState. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("rwq");
        fifo_.clear();
        index_.clear();
        const std::uint64_t n = in.count(1ULL << 24);
        for (std::uint64_t i = 0; i < n; ++i) {
            WqEntry e;
            e.line = in.u64();
            e.vpn = in.u64();
            e.bytesWritten = in.u32();
            e.mergedStores = in.u32();
            e.weight = in.u32();
            e.seq = in.u64();
            fifo_.push_back(e);
            index_[e.line] = std::prev(fifo_.end());
        }
        occupancy_ = in.u32();
        inserts_ = in.u64();
        coalesced_ = in.u64();
        drains_ = in.u64();
        atomicBypass_ = in.u64();
        watermarkDrains_ = in.u64();
        forwardHits_ = in.u64();
        stallDrains_ = in.u64();
        saturated_ = in.b();
    }

  private:
    void drainOne();
    void drainEntry(std::list<WqEntry>::iterator it);
    void drainToWatermark();

    const GpsConfig* config_;
    std::uint32_t lineBytes_;
    PageGeometry geometry_;
    DrainFn drain_;

    /** FIFO by insertion order (front = least recently added). */
    std::list<WqEntry> fifo_;
    std::unordered_map<Addr, std::list<WqEntry>::iterator> index_;
    std::uint32_t occupancy_ = 0;

    std::uint64_t inserts_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t drains_ = 0;
    std::uint64_t atomicBypass_ = 0;
    std::uint64_t watermarkDrains_ = 0;
    std::uint64_t forwardHits_ = 0;
    std::uint64_t stallDrains_ = 0;
    bool saturated_ = false;
    const Probes* probes_;
    int track_;
};

} // namespace gps

#endif // GPS_CORE_REMOTE_WRITE_QUEUE_HH
