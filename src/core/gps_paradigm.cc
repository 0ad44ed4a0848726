#include "core/gps_paradigm.hh"

#include <algorithm>
#include <bit>

#include "check/sink.hh"
#include "common/logging.hh"
#include "fault/fault_engine.hh"
#include "interconnect/node_topology.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"

namespace gps
{

GpsParadigm::GpsParadigm(MultiGpuSystem& system)
    : Paradigm("gps", system)
{
    gpsTable_ = std::make_unique<GpsPageTable>();
    subs_ = std::make_unique<SubscriptionManager>(
        system.driver(), *gpsTable_, &system.probes());
    subs_->installReclaimHook();
    tracker_ = std::make_unique<AccessTracker>(system.numGpus());
    for (std::size_t g = 0; g < system.numGpus(); ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        queues_.push_back(std::make_unique<RemoteWriteQueue>(
            "gpu" + std::to_string(g) + ".remote_write_queue",
            system.config().gps, system.config().gpu.cacheLineBytes,
            system.geometry(), &system.probes(), static_cast<int>(g)));
        units_.push_back(std::make_unique<GpsTranslationUnit>(
            "gpu" + std::to_string(g) + ".gps_xlat", system.config().gps,
            *gpsTable_));
        queues_.back()->setDrainCallback(
            [this, gpu](const WqEntry& entry) { onDrain(gpu, entry); });
    }
    chargedStallDrains_.assign(system.numGpus(), 0);
    hierTopo_ = dynamic_cast<const NodeTopology*>(&system.topology());
    headerBytes_ = system.topology().spec().headerBytes;
    resetPending(16);
}

void
GpsParadigm::onSetupComplete()
{
    // Subscribed-by-default profiling: every GPU tentatively subscribes
    // to every automatically managed GPS allocation (§5.2).
    for (const auto& [base, region] : drv().addressSpace().regions()) {
        if (region.kind == MemKind::Gps && !region.manualSubscription)
            subs_->subscribeAll(region);
    }
}

void
GpsParadigm::accessShared(GpuId gpu, const MemAccess& access, PageNum vpn,
                          PageState& st, bool tlb_miss,
                          KernelCounters& counters, TrafficMatrix& traffic)
{
    if (st.collapsed) {
        // Demoted to a conventional single-copy page (§5.3).
        if (st.location == gpu) {
            localAccess(gpu, access, counters);
        } else if (access.isLoad()) {
            remoteLoad(gpu, st.location, access, counters, traffic);
        } else if (access.isAtomic()) {
            remoteAtomic(gpu, st.location, access, counters, traffic);
        } else {
            remoteStore(gpu, st.location, access, counters, traffic);
        }
        return;
    }

    // T1: last-level TLB misses to GPS pages feed the tracking bitmap.
    if (tlb_miss)
        tracker_->mark(gpu, vpn);

    // Fault degradation: count remote accesses to pages whose replica
    // was retired; re-subscribe once the threshold is reached.
    if (!degraded_.empty() && !maskHas(st.subscribers, gpu))
        maybeResubscribe(gpu, vpn, st, counters, traffic);

    if (access.isLoad()) {
        if (maskHas(st.subscribers, gpu)) {
            // R1-R3: loads always hit the local replica.
            localAccess(gpu, access, counters);
            return;
        }
        // Non-subscriber corner case: forward from the write queue if
        // the line is still buffered, else read a remote subscriber.
        if (queues_[gpu]->contains(access.vaddr)) {
            queues_[gpu]->noteForwardHit();
            ++counters.l2Hits;
            return;
        }
        remoteLoad(gpu, maskFirst(st.subscribers), access, counters,
                   traffic);
        return;
    }

    // Stores and atomics.
    if (access.scope == Scope::Sys) {
        handleSysWrite(gpu, access, vpn, counters, traffic);
        return;
    }

    const bool local_replica = maskHas(st.subscribers, gpu);
    if (local_replica) {
        // W3: update the local replica so later local reads observe it.
        localAccess(gpu, access, counters);
    }

    const GpuMask remote = maskClear(st.subscribers, gpu);
    if (remote == 0)
        return; // sole subscriber: page was demoted to conventional

    if (access.isAtomic()) {
        // The WQ does not coalesce atomics (§7.4); each one translates
        // through the GPS-TLB and is forwarded immediately.
        queues_[gpu]->noteAtomicBypass();
        ++counters.wqAtomicBypass;
        units_[gpu]->translate(vpn, counters);
        forwardToSubscribers(gpu, remote, vpn, access.size, counters);
        return;
    }

    // Weak store: SM-level spatial coalescing first (W4 follows).
    if (cfg().smCoalescerEnabled &&
        sys().gpu(gpu).storeCoalescer().absorb(access.vaddr)) {
        ++counters.smCoalesced;
        return;
    }

    ctxCounters_ = &counters;
    const bool coalesced = queues_[gpu]->insert(
        access.vaddr, access.size,
        static_cast<std::uint32_t>(maskCount(remote)));
    if (coalesced)
        ++counters.wqCoalesced;
    else
        ++counters.wqInserts;
    if (queues_[gpu]->saturated())
        chargeWqStalls(gpu, counters);
}

void
GpsParadigm::onDrain(GpuId producer, const WqEntry& entry)
{
    gps_assert(ctxCounters_ != nullptr,
               "write queue drained outside a replay context");
    // W5: translate through the GPS-TLB / GPS page table.
    units_[producer]->translate(entry.vpn, *ctxCounters_);

    // W6: one cache-block message per remote subscriber (interconnect
    // transfers are block-granular; §7.5 discusses the waste).
    const PageState& st = drv().state(entry.vpn);
    forwardToSubscribers(producer, st.subscribers, entry.vpn, lineBytes(),
                         *ctxCounters_);
    ++ctxCounters_->wqDrains;
}

std::size_t
GpsParadigm::pendingSlot(GpuId producer, const GpuMask& remote) const
{
    std::uint64_t h = producer;
    for (std::size_t i = 0; i < GpuMask::words; ++i)
        h = (h ^ remote.word(i)) * 0x9e3779b97f4a7c15ULL;
    const std::size_t mask = pending_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(h >> pendingShift_);
    while (pending_[slot].messages != 0 &&
           (pending_[slot].producer != producer ||
            pending_[slot].remote != remote))
        slot = (slot + 1) & mask;
    return slot;
}

void
GpsParadigm::resetPending(std::size_t slots)
{
    pending_.assign(slots, PendingForward{});
    pendingSlots_.clear();
    pendingShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

void
GpsParadigm::forwardToSubscribers(GpuId producer,
                                  const GpuMask& subscribers, PageNum vpn,
                                  std::uint32_t payload,
                                  KernelCounters& counters)
{
    const GpuMask remote = maskClear(subscribers, producer);
    const std::uint64_t fanout = maskCount(remote);
    if (fanout == 0)
        return;
    counters.pushedStoreBytes += payload * fanout;
    if (ProfileCollector* profile = sys().probes().profile)
        profile->noteRemoteWriteForward(vpn, payload, fanout);

    // Keep the load at or below one half so probe runs stay short.
    if (2 * (pendingSlots_.size() + 1) > pending_.size()) {
        std::vector<PendingForward> old;
        old.swap(pending_);
        std::vector<std::size_t> old_slots;
        old_slots.swap(pendingSlots_);
        resetPending(old.size() * 2);
        for (const std::size_t s : old_slots) {
            const std::size_t slot =
                pendingSlot(old[s].producer, old[s].remote);
            pending_[slot] = old[s];
            pendingSlots_.push_back(slot);
        }
    }
    const std::size_t slot = pendingSlot(producer, remote);
    PendingForward& p = pending_[slot];
    if (p.messages == 0) {
        p.producer = producer;
        p.remote = remote;
        pendingSlots_.push_back(slot);
    }
    ++p.messages;
    p.payload += payload;
}

void
GpsParadigm::flushForwards(TrafficMatrix& traffic)
{
    const bool hier =
        hierTopo_ != nullptr && cfg().hierarchicalSubscription;
    for (const std::size_t slot : pendingSlots_) {
        PendingForward& p = pending_[slot];
        const std::uint64_t wire = p.payload + p.messages * headerBytes_;
        const std::size_t home =
            hierTopo_ != nullptr ? hierTopo_->nodeOf(p.producer) : 0;
        // maskForEach visits ascending GPU ids and nodes are contiguous
        // id ranges, so each remote node's subscribers arrive
        // consecutively: tracking only the most recent proxy suffices.
        GpuId proxy = invalidGpu;
        std::size_t proxy_node = 0;
        maskForEach(p.remote, [&](GpuId sub) {
            GpuId src = p.producer;
            if (hierTopo_ != nullptr) {
                const std::size_t node = hierTopo_->nodeOf(sub);
                if (node != home) {
                    if (!hier) {
                        uplinkForwards_ += p.messages;
                    } else if (proxy == invalidGpu || node != proxy_node) {
                        // First subscriber on this remote node becomes
                        // the node's proxy: one copy crosses the
                        // uplink...
                        proxy = sub;
                        proxy_node = node;
                        uplinkForwards_ += p.messages;
                    } else {
                        // ...and the proxy fans out to its node-mates.
                        src = proxy;
                    }
                }
            }
            traffic.add(src, sub, wire, p.payload);
        });
        p = PendingForward{};
    }
    pendingSlots_.clear();
}

void
GpsParadigm::handleSysWrite(GpuId gpu, const MemAccess& access,
                            PageNum vpn, KernelCounters& counters,
                            TrafficMatrix& traffic)
{
    PageState& st = drv().state(vpn);

    // Flush all in-flight writes to the page, everywhere. The checker
    // hears about the flush first so its reference model drains with
    // the same pre-collapse subscriber masks the drains below see.
    ctxCounters_ = &counters;
    if (GpsCheckSink* check = sys().probes().check)
        check->noteSysFlush(vpn);
    for (auto& queue : queues_)
        queue->drainPage(vpn);

    // Collapse to a single copy and demote (access faults, §5.3).
    const GpuId keeper = maskHas(st.subscribers, gpu)
                             ? gpu
                             : maskFirst(st.subscribers);
    subs_->collapse(vpn, keeper, counters);
    ++counters.pageFaults;
    ++counters.sysCollapses;

    if (keeper == gpu) {
        localAccess(gpu, access, counters);
    } else if (access.isAtomic()) {
        remoteAtomic(gpu, keeper, access, counters, traffic);
    } else {
        remoteStore(gpu, keeper, access, counters, traffic);
    }
}

void
GpsParadigm::endKernel(GpuId gpu, KernelCounters& counters,
                       TrafficMatrix& traffic)
{
    // Implicit release at the end of every grid: full drain (§3.3).
    ctxCounters_ = &counters;
    queues_[gpu]->drainAll();
    sys().gpu(gpu).storeCoalescer().reset();
    flushForwards(traffic);
}

Tick
GpsParadigm::beginPhase(const Phase& phase, KernelCounters& counters,
                        TrafficMatrix& prefetch_traffic)
{
    gps_assert(pendingSlots_.empty(),
               "subscriber forwards left pending past a phase's kernels");
    return Paradigm::beginPhase(phase, counters, prefetch_traffic);
}

void
GpsParadigm::onFaultPageRetire(GpuId gpu, std::uint64_t count,
                               FaultReport& report)
{
    // Retirement hits frames regardless of what they hold (ECC rows do
    // not spare in-use data), so replica-backed frames go first — that
    // is the adversity GPS has to degrade around; any remainder comes
    // out of the free pool.
    std::uint64_t remaining = count;

    // Candidate replicas on this GPU: multi-subscriber, not collapsed
    // (the swap-out preconditions). Sorted for determinism, victims
    // drawn with the engine's seeded Rng.
    std::vector<PageNum> candidates;
    gpsTable_->forEach([&](PageNum vpn, const GpsPte& pte) {
        if (pte.replicas.size() >= 2 && pte.hasSubscriber(gpu) &&
            !drv().state(vpn).collapsed)
            candidates.push_back(vpn);
    });
    // forEach already visits in ascending VPN order (deterministic).

    FaultEngine* engine = sys().faults();
    while (remaining > 0 && !candidates.empty()) {
        std::size_t pick = 0;
        if (engine != nullptr)
            pick = static_cast<std::size_t>(
                engine->rng().below(candidates.size()));
        const PageNum vpn = candidates[pick];
        candidates.erase(candidates.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        if (!subs_->retireReplica(vpn, gpu))
            continue;
        --remaining;
        ++report.pagesRetired;
        ++report.replicasLost;
        ++report.pagesDegraded;
        if (cfg().resubscribeAfter > 0)
            degraded_.emplace(degradedKey(vpn, gpu), 0);
    }
    if (remaining > 0)
        report.pagesRetired +=
            sys().gpu(gpu).memory().retireFrames(remaining);
}

void
GpsParadigm::onFaultWqSaturate(GpuId gpu, bool saturated,
                               FaultReport& report)
{
    (void)report;
    if (GpsCheckSink* check = sys().probes().check)
        check->noteWqSaturation(gpu, saturated);
    if (gpu == invalidGpu) {
        for (auto& queue : queues_)
            queue->setSaturated(saturated);
        return;
    }
    queues_.at(gpu)->setSaturated(saturated);
}

void
GpsParadigm::maybeResubscribe(GpuId gpu, PageNum vpn, PageState& st,
                              KernelCounters& counters,
                              TrafficMatrix& traffic)
{
    const auto it = degraded_.find(degradedKey(vpn, gpu));
    if (it == degraded_.end())
        return;
    if (++it->second < cfg().resubscribeAfter)
        return;
    if (subs_->subscribe(vpn, gpu) != SubscribeResult::Ok) {
        // Still out of memory: back off for another threshold's worth.
        it->second = 0;
        return;
    }
    // Refill the new replica from a surviving subscriber.
    const GpuId src = maskFirst(maskClear(st.subscribers, gpu));
    if (src != invalidGpu) {
        const std::uint64_t page_bytes = drv().pageBytes();
        traffic.add(src, gpu, page_bytes + headerBytes(), page_bytes);
        counters.migrationBytes += page_bytes;
    }
    degraded_.erase(it);
    if (CausalRecorder* causal = sys().probes().causal)
        causal->noteDep(CausalEdge::MigrationToStall);
    if (FaultEngine* engine = sys().faults())
        ++engine->report().resubscribes;
}

void
GpsParadigm::chargeWqStalls(GpuId gpu, KernelCounters& counters)
{
    const std::uint64_t stalls = queues_[gpu]->stallDrains();
    if (stalls == chargedStallDrains_[gpu])
        return;
    const std::uint64_t delta = stalls - chargedStallDrains_[gpu];
    chargedStallDrains_[gpu] = stalls;
    // Exact integer charge at the default scale; the what-if divisor
    // only perturbs arithmetic when explicitly set away from 1.0.
    const Tick stall_ticks =
        cfg().wqDrainScale == 1.0
            ? static_cast<Tick>(delta) * cfg().wqStallPenalty
            : static_cast<Tick>(
                  static_cast<double>(delta) *
                  static_cast<double>(cfg().wqStallPenalty) /
                  cfg().wqDrainScale);
    counters.wqStallDrains += delta;
    counters.wqStallTicks += stall_ticks;
    if (FaultEngine* engine = sys().faults()) {
        engine->report().wqSaturatedDrains += delta;
        engine->report().stallTicks += stall_ticks;
    }
}

void
GpsParadigm::trackingStart()
{
    tracker_->clear();
    tracker_->start();
}

void
GpsParadigm::trackingStop(KernelCounters& counters)
{
    tracker_->stop();
    if (!cfg().autoUnsubscribe)
        return;
    // Unsubscribe every GPU from every auto-managed page it did not
    // touch during profiling; a page untouched by all keeps one
    // subscriber (the unsubscribe refusal guarantees it).
    for (const auto& [base, region] : drv().addressSpace().regions()) {
        if (region.kind != MemKind::Gps || region.manualSubscription)
            continue;
        drv().forEachPage(region, [&](PageNum vpn) {
            const GpuMask touched = tracker_->touchedMask(vpn);
            const GpuMask subscribers = subs_->subscribers(vpn);
            maskForEach(subscribers, [&](GpuId g) {
                if (!maskHas(touched, g))
                    subs_->unsubscribe(vpn, g, &counters);
            });
        });
    }
    tracker_->clear();
}

bool
GpsParadigm::fillSubscriberHistogram(Histogram& hist) const
{
    subs_->fillHistogram(hist);
    return true;
}

void
GpsParadigm::manualSubscribe(Addr base, std::uint64_t len, GpuId gpu)
{
    subs_->subscribeRange(base, len, gpu);
}

UnsubscribeResult
GpsParadigm::manualUnsubscribe(Addr base, std::uint64_t len, GpuId gpu)
{
    return subs_->unsubscribeRange(base, len, gpu);
}

double
GpsParadigm::wqHitRate() const
{
    std::uint64_t coalesced = 0;
    std::uint64_t total = 0;
    // Atomic bypasses count as misses (§7.4).
    for (const auto& queue : queues_) {
        coalesced += queue->coalesced();
        total += queue->coalesced() + queue->inserts() +
                 queue->atomicBypass();
    }
    return total == 0 ? 0.0
                      : static_cast<double>(coalesced) /
                            static_cast<double>(total);
}

double
GpsParadigm::gpsTlbHitRate() const
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto& unit : units_) {
        hits += unit->gpsTlb().hits();
        misses += unit->gpsTlb().misses();
    }
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
}

void
GpsParadigm::exportStats(StatSet& out) const
{
    subs_->exportStats(out);
    gpsTable_->exportStats(out);
    tracker_->exportStats(out);
    for (const auto& queue : queues_)
        queue->exportStats(out);
    for (const auto& unit : units_)
        unit->exportStats(out);
    std::uint64_t forward_hits = 0;
    for (const auto& queue : queues_)
        forward_hits += queue->forwardHits();
    out.set("gps.wq_forward_hits", static_cast<double>(forward_hits));
    out.set("gps.uplink_forwards",
            static_cast<double>(uplinkForwards_));
    out.set("gps.wq_hit_rate", wqHitRate());
    out.set("gps.gps_tlb_hit_rate", gpsTlbHitRate());
}

void
GpsParadigm::registerMetrics(MetricRegistry& reg) const
{
    subs_->registerMetrics(reg);
    gpsTable_->registerMetrics(reg);
    tracker_->registerMetrics(reg);
    for (const auto& queue : queues_)
        queue->registerMetrics(reg);
    for (const auto& unit : units_)
        unit->registerMetrics(reg);
    reg.counter("gps.wq_forward_hits", "loads", [this] {
        std::uint64_t forward_hits = 0;
        for (const auto& queue : queues_)
            forward_hits += queue->forwardHits();
        return static_cast<double>(forward_hits);
    });
    reg.counter("gps.uplink_forwards", "messages", [this] {
        return static_cast<double>(uplinkForwards_);
    });
    reg.gauge("gps.wq_hit_rate", "ratio",
              [this] { return wqHitRate(); });
    reg.gauge("gps.gps_tlb_hit_rate", "ratio",
              [this] { return gpsTlbHitRate(); });
}

void
GpsParadigm::saveState(snapshot::Serializer& out) const
{
    gps_assert(pendingSlots_.empty(),
               "snapshot taken with subscriber forwards pending");
    out.section("paradigm:gps");
    gpsTable_->saveState(out);
    subs_->saveState(out);
    tracker_->saveState(out);
    out.u64(queues_.size());
    for (const auto& queue : queues_)
        queue->saveState(out);
    out.u64(units_.size());
    for (const auto& unit : units_)
        unit->saveState(out);
    // degraded_ keys are (vpn << 6 | gpu); sorted so snapshot bytes never
    // depend on hash iteration order.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> degraded(
        degraded_.begin(), degraded_.end());
    std::sort(degraded.begin(), degraded.end());
    out.u64(degraded.size());
    for (const auto& [key, accesses] : degraded) {
        out.u64(key);
        out.u32(accesses);
    }
    out.u64(chargedStallDrains_.size());
    for (const std::uint64_t charged : chargedStallDrains_)
        out.u64(charged);
    out.u64(uplinkForwards_);
}

void
GpsParadigm::restoreState(snapshot::Deserializer& in)
{
    in.section("paradigm:gps");
    gpsTable_->restoreState(in);
    subs_->restoreState(in);
    tracker_->restoreState(in);
    const std::uint64_t queues = in.u64();
    if (queues != queues_.size())
        throw snapshot::SnapshotError(
            "snapshot write-queue count differs from the configured "
            "system");
    for (auto& queue : queues_)
        queue->restoreState(in);
    const std::uint64_t units = in.u64();
    if (units != units_.size())
        throw snapshot::SnapshotError(
            "snapshot GPS-TU count differs from the configured system");
    for (auto& unit : units_)
        unit->restoreState(in);
    degraded_.clear();
    const std::uint64_t degraded = in.count(1ULL << 40);
    degraded_.reserve(degraded);
    for (std::uint64_t i = 0; i < degraded; ++i) {
        const std::uint64_t key = in.u64();
        degraded_[key] = in.u32();
    }
    chargedStallDrains_.assign(in.count(1ULL << 20), 0);
    for (std::uint64_t& charged : chargedStallDrains_)
        charged = in.u64();
    uplinkForwards_ = in.u64();
}

} // namespace gps
