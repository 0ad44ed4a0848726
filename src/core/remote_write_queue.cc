#include "core/remote_write_queue.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"

namespace gps
{

RemoteWriteQueue::RemoteWriteQueue(std::string name,
                                   const GpsConfig& config,
                                   std::uint32_t line_bytes,
                                   PageGeometry geometry,
                                   const Probes* probes, int track)
    : SimObject(std::move(name)), config_(&config),
      lineBytes_(line_bytes), geometry_(geometry), probes_(probes),
      track_(track)
{
    gps_assert(config.wqEntries > 0, "zero-entry remote write queue");
}

bool
RemoteWriteQueue::insert(Addr addr, std::uint32_t size,
                         std::uint32_t copies)
{
    (void)size;
    const Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);

    const std::uint32_t weight =
        config_->virtuallyAddressedWq ? 1 : std::max(copies, 1u);

    auto hit = index_.find(line);
    if (hit != index_.end()) {
        WqEntry& entry = *hit->second;
        entry.bytesWritten =
            std::min<std::uint32_t>(lineBytes_, entry.bytesWritten + size);
        ++entry.mergedStores;
        ++coalesced_;
        // The subscriber set may have changed since the entry was
        // created; under the physically-addressed ablation the entry's
        // capacity weight tracks the current copy count, so occupancy
        // is re-charged and a growth may force watermark drains. The
        // entry itself can drain here — don't touch it afterwards.
        if (weight != entry.weight) {
            occupancy_ = occupancy_ - entry.weight + weight;
            entry.weight = weight;
            drainToWatermark();
        }
        return true;
    }

    WqEntry entry;
    entry.line = line;
    entry.vpn = geometry_.pageNum(line);
    entry.bytesWritten = std::min<std::uint32_t>(lineBytes_, size);
    entry.mergedStores = 1;
    entry.weight = weight;

    entry.seq = inserts_;
    fifo_.push_back(entry);
    index_.emplace(line, std::prev(fifo_.end()));
    occupancy_ += entry.weight;
    ++inserts_;
    if (probes_->profile != nullptr)
        probes_->profile->noteRwqOccupancy(occupancy_);
    if (probes_->causal != nullptr)
        probes_->causal->noteDep(CausalEdge::RwqInsertToDrain);

    drainToWatermark();
    return false;
}

void
RemoteWriteQueue::drainToWatermark()
{
    // At the high watermark, drain least-recently-added entries to free
    // space while leaving maximum coalescing opportunity (§5.2). Under
    // injected saturation the watermark collapses and each forced drain
    // stalls the producing SM (charged by the caller via stallDrains).
    std::uint32_t watermark = config_->highWatermark();
    if (saturated_ && config_->saturatedWatermarkDivisor > 0)
        watermark = std::min(
            watermark,
            config_->wqEntries / config_->saturatedWatermarkDivisor);
    while (occupancy_ > watermark && fifo_.size() > 1) {
        ++watermarkDrains_;
        if (saturated_) {
            ++stallDrains_;
            if (probes_->causal != nullptr)
                probes_->causal->noteDep(CausalEdge::RwqSaturationStall);
        }
        drainOne();
    }
}

bool
RemoteWriteQueue::contains(Addr addr) const
{
    const Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
    return index_.find(line) != index_.end();
}

void
RemoteWriteQueue::setSaturated(bool saturated)
{
    if (saturated == saturated_)
        return;
    saturated_ = saturated;
    if (probes_->recorder != nullptr)
        probes_->recorder->instantNow(
            track_, saturated ? "wq_saturated" : "wq_restored", "rwq");
}

void
RemoteWriteQueue::drainAll()
{
    const std::uint64_t before = drains_;
    while (!fifo_.empty())
        drainOne();
    if (probes_->recorder != nullptr && drains_ > before)
        probes_->recorder->instantNow(
            track_, "wq_drain_all", "rwq",
            {{"entries", static_cast<double>(drains_ - before)}});
}

void
RemoteWriteQueue::drainPage(PageNum vpn)
{
    for (auto it = fifo_.begin(); it != fifo_.end();) {
        if (it->vpn == vpn) {
            auto victim = it++;
            drainEntry(victim);
        } else {
            ++it;
        }
    }
}

void
RemoteWriteQueue::drainOne()
{
    gps_assert(!fifo_.empty(), "drain of empty write queue");
    drainEntry(fifo_.begin());
}

void
RemoteWriteQueue::drainEntry(std::list<WqEntry>::iterator it)
{
    const WqEntry entry = *it;
    index_.erase(entry.line);
    occupancy_ -= entry.weight;
    fifo_.erase(it);
    ++drains_;
    if (probes_->profile != nullptr)
        probes_->profile->noteRwqDrainResidency(inserts_ - entry.seq);
    if (drain_)
        drain_(entry);
}

double
RemoteWriteQueue::hitRate() const
{
    const std::uint64_t total = coalesced_ + inserts_ + atomicBypass_;
    return total == 0 ? 0.0
                      : static_cast<double>(coalesced_) /
                            static_cast<double>(total);
}

std::uint64_t
RemoteWriteQueue::sramBytes() const
{
    return static_cast<std::uint64_t>(config_->wqEntries) *
           config_->wqEntryBytes;
}

void
RemoteWriteQueue::exportStats(StatSet& out) const
{
    out.set(name() + ".inserts", static_cast<double>(inserts_));
    out.set(name() + ".coalesced", static_cast<double>(coalesced_));
    out.set(name() + ".drains", static_cast<double>(drains_));
    out.set(name() + ".atomic_bypass",
            static_cast<double>(atomicBypass_));
    out.set(name() + ".watermark_drains",
            static_cast<double>(watermarkDrains_));
    out.set(name() + ".stall_drains", static_cast<double>(stallDrains_));
    out.set(name() + ".forward_hits", static_cast<double>(forwardHits_));
    out.set(name() + ".hit_rate", hitRate());
}

void
RemoteWriteQueue::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "inserts", "entries",
                [this] { return static_cast<double>(inserts_); });
    reg.counter(p + "coalesced", "stores",
                [this] { return static_cast<double>(coalesced_); });
    reg.counter(p + "drains", "entries",
                [this] { return static_cast<double>(drains_); });
    reg.counter(p + "atomic_bypass", "ops",
                [this] { return static_cast<double>(atomicBypass_); });
    reg.counter(p + "watermark_drains", "entries",
                [this] { return static_cast<double>(watermarkDrains_); });
    reg.counter(p + "stall_drains", "entries",
                [this] { return static_cast<double>(stallDrains_); });
    reg.counter(p + "forward_hits", "loads",
                [this] { return static_cast<double>(forwardHits_); });
    reg.gauge(p + "occupancy", "units",
              [this] { return static_cast<double>(occupancy_); });
    reg.gauge(p + "hit_rate", "ratio", [this] { return hitRate(); });
}

void
RemoteWriteQueue::resetStats()
{
    inserts_ = 0;
    coalesced_ = 0;
    drains_ = 0;
    atomicBypass_ = 0;
    watermarkDrains_ = 0;
    forwardHits_ = 0;
    stallDrains_ = 0;
}

} // namespace gps
