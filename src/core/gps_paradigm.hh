/**
 * @file
 * The GPS memory-management paradigm: the paper's contribution.
 *
 * Loads to GPS pages are serviced from the local replica (or forwarded
 * from the remote write queue / a remote subscriber in the non-subscriber
 * corner case). Weak stores write the local replica, pass the SM store
 * coalescer, coalesce in the per-GPU remote write queue, and drain through
 * the GPS address translation unit to every remote subscriber. Sys-scoped
 * stores collapse the page (Section 5.3). Automatic subscription profiles
 * TLB misses through the access tracking unit and unsubscribes untouched
 * GPUs at cuGPSTrackingStop() (Section 5.2).
 */

#ifndef GPS_CORE_GPS_PARADIGM_HH
#define GPS_CORE_GPS_PARADIGM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/access_tracker.hh"
#include "core/gps_config.hh"
#include "core/gps_page_table.hh"
#include "core/gps_translation_unit.hh"
#include "core/remote_write_queue.hh"
#include "core/subscription.hh"
#include "paradigm/paradigm.hh"

namespace gps
{

class NodeTopology;

/** Publish-subscribe multi-GPU memory management. */
class GpsParadigm : public Paradigm
{
  public:
    explicit GpsParadigm(MultiGpuSystem& system);

    ParadigmKind kind() const override { return ParadigmKind::Gps; }
    MemKind sharedKind() const override { return MemKind::Gps; }

    void onSetupComplete() override;
    Tick beginPhase(const Phase& phase, KernelCounters& counters,
                    TrafficMatrix& prefetch_traffic) override;

    /**
     * Drain @p gpu's write queue, then add every subscriber forward
     * still pending (from any GPU) to @p traffic: the phase traffic
     * matrix is complete once every endKernel of the phase has returned.
     */
    void endKernel(GpuId gpu, KernelCounters& counters,
                   TrafficMatrix& traffic) override;
    void trackingStart() override;
    void trackingStop(KernelCounters& counters) override;
    bool fillSubscriberHistogram(Histogram& hist) const override;

    /**
     * Replica loss: free frames are retired first; beyond that, replicas
     * on @p gpu are evicted through the §5.3 swap-out machinery and the
     * GPU degrades to remote accesses for those pages (with optional
     * re-subscription after resubscribeAfter accesses).
     */
    void onFaultPageRetire(GpuId gpu, std::uint64_t count,
                           FaultReport& report) override;

    /** RWQ backpressure: saturate/restore the GPU's write queue(s). */
    void onFaultWqSaturate(GpuId gpu, bool saturated,
                           FaultReport& report) override;

    /** Manual subscription API (CU_MEM_ADVISE_GPS_SUBSCRIBE). */
    void manualSubscribe(Addr base, std::uint64_t len, GpuId gpu);

    /** Manual unsubscription (CU_MEM_ADVISE_GPS_UNSUBSCRIBE). */
    UnsubscribeResult manualUnsubscribe(Addr base, std::uint64_t len,
                                        GpuId gpu);

    void
    adviseSubscribe(Addr base, std::uint64_t len, GpuId gpu) override
    {
        manualSubscribe(base, len, gpu);
    }

    bool
    adviseUnsubscribe(Addr base, std::uint64_t len, GpuId gpu) override
    {
        return manualUnsubscribe(base, len, gpu) !=
               UnsubscribeResult::LastSubscriber;
    }

    SubscriptionManager& subscriptions() { return *subs_; }
    const SubscriptionManager& subscriptions() const { return *subs_; }
    GpsPageTable& gpsPageTable() { return *gpsTable_; }
    AccessTracker& tracker() { return *tracker_; }
    RemoteWriteQueue& writeQueue(GpuId gpu) { return *queues_.at(gpu); }
    GpsTranslationUnit& translationUnit(GpuId gpu)
    {
        return *units_.at(gpu);
    }

    /** Aggregate write-queue hit rate across all GPUs (Fig. 14). */
    double wqHitRate() const;

    /**
     * Remote-write messages whose source and destination GPU live in
     * different nodes (drains and atomic bypasses). On a hierarchical
     * subscription this is one per remote node per forwarded line; flat
     * forwarding pays one per remote-node subscriber. Always 0 on a
     * single-node topology. Counted when endKernel expands the pending
     * forwards.
     */
    std::uint64_t uplinkForwards() const { return uplinkForwards_; }

    /** Aggregate GPS-TLB hit rate (Section 7.4). */
    double gpsTlbHitRate() const;

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize the full publish-subscribe machine: GPS page table,
     * subscription counters, access tracker, per-GPU write queues and
     * translation units, the degraded-page access counts, and the
     * per-GPU stall-drain charge cursors.
     */
    void saveState(snapshot::Serializer& out) const override;
    void restoreState(snapshot::Deserializer& in) override;

  protected:
    void accessShared(GpuId gpu, const MemAccess& access, PageNum vpn,
                      PageState& st, bool tlb_miss,
                      KernelCounters& counters,
                      TrafficMatrix& traffic) override;

  private:
    void onDrain(GpuId producer, const WqEntry& entry);

    /**
     * Deliver one forwarded line (or atomic payload) to every subscriber
     * other than the producer. The payload counters are charged at
     * once; the wire traffic is summed per (producer, remote mask) and
     * expanded by flushForwards() at the next endKernel.
     */
    void forwardToSubscribers(GpuId producer, const GpuMask& subscribers,
                              PageNum vpn, std::uint32_t payload,
                              KernelCounters& counters);

    /**
     * Expand every pending (producer, remote mask) sum into @p traffic,
     * one cell per subscriber. On a multi-node topology with
     * hierarchicalSubscription enabled, each remote node receives exactly
     * one copy per message over the uplink (to a proxy subscriber) and
     * the proxy fans it out to its node-mates over the local tier.
     */
    void flushForwards(TrafficMatrix& traffic);
    void handleSysWrite(GpuId gpu, const MemAccess& access, PageNum vpn,
                        KernelCounters& counters, TrafficMatrix& traffic);

    /** Count a remote access to a fault-degraded page; re-subscribe and
     *  refill the replica once the threshold is reached. */
    void maybeResubscribe(GpuId gpu, PageNum vpn, PageState& st,
                          KernelCounters& counters,
                          TrafficMatrix& traffic);

    /** Charge SM stalls for drains forced while the WQ is saturated. */
    void chargeWqStalls(GpuId gpu, KernelCounters& counters);

    static std::uint64_t
    degradedKey(PageNum vpn, GpuId gpu)
    {
        return (vpn << 8) | gpu;
    }

    const GpsConfig& cfg() const { return sys().config().gps; }

    std::unique_ptr<GpsPageTable> gpsTable_;
    std::unique_ptr<SubscriptionManager> subs_;
    std::unique_ptr<AccessTracker> tracker_;
    std::vector<std::unique_ptr<RemoteWriteQueue>> queues_;
    std::vector<std::unique_ptr<GpsTranslationUnit>> units_;

    /** Drain context: the phase currently being replayed. */
    KernelCounters* ctxCounters_ = nullptr;

    /** (vpn, gpu) -> remote accesses since the replica was lost. */
    std::unordered_map<std::uint64_t, std::uint32_t> degraded_;

    /** Per-GPU stallDrains() already charged to kernel counters. */
    std::vector<std::uint64_t> chargedStallDrains_;

    /** Node-aware topology, nullptr when the system is single-node. */
    const NodeTopology* hierTopo_ = nullptr;

    /** Cross-node remote-write messages (see uplinkForwards()). */
    std::uint64_t uplinkForwards_ = 0;

    /** Per-message protocol header bytes of the interconnect. */
    std::uint32_t headerBytes_ = 0;

    /** Forwards of one producer to one remote subscriber mask. */
    struct PendingForward
    {
        GpuMask remote;
        GpuId producer = invalidGpu;
        std::uint64_t messages = 0;
        std::uint64_t payload = 0;
    };

    /**
     * Forwards not yet added to a traffic matrix, in a flat
     * linear-probing table keyed by (producer, remote mask); an empty
     * slot has messages == 0. pendingSlots_ lists the occupied slots in
     * first-use order so a flush touches only those.
     */
    std::vector<PendingForward> pending_;
    std::vector<std::size_t> pendingSlots_;
    unsigned pendingShift_ = 0;

    std::size_t pendingSlot(GpuId producer, const GpuMask& remote) const;
    void resetPending(std::size_t slots);
};

} // namespace gps

#endif // GPS_CORE_GPS_PARADIGM_HH
