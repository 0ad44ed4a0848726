#include "interconnect/topology.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"
#include "fault/fault_plan.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"

namespace gps
{

std::uint64_t
TrafficMatrix::egress(GpuId src) const
{
    std::uint64_t sum = 0;
    for (std::size_t dst = 0; dst < n_; ++dst)
        sum += bytes_[src * n_ + dst];
    return sum;
}

std::uint64_t
TrafficMatrix::ingress(GpuId dst) const
{
    std::uint64_t sum = 0;
    for (std::size_t src = 0; src < n_; ++src)
        sum += bytes_[src * n_ + dst];
    return sum;
}

std::uint64_t
TrafficMatrix::total() const
{
    std::uint64_t sum = 0;
    for (auto b : bytes_)
        sum += b;
    return sum;
}

void
TrafficMatrix::clear()
{
    std::fill(bytes_.begin(), bytes_.end(), 0);
    payload_ = 0;
}

std::uint64_t
TrafficMatrix::takeWire(GpuId src, GpuId dst)
{
    const std::uint64_t bytes = bytes_[src * n_ + dst];
    bytes_[src * n_ + dst] = 0;
    return bytes;
}

Topology::Topology(std::string name, std::size_t num_gpus,
                   InterconnectKind kind, double bandwidth_scale,
                   const Probes* probes)
    : SimObject(std::move(name)), numGpus_(num_gpus),
      spec_(&interconnectSpec(kind)), probes_(probes)
{
    gps_assert(num_gpus >= 1, "topology needs at least one GPU");
    gps_assert(bandwidth_scale > 0.0,
               "link bandwidth scale must be positive");
    if (bandwidth_scale != 1.0 && !spec_->infinite) {
        ownedSpec_ = *spec_;
        ownedSpec_.bandwidth *= bandwidth_scale;
        spec_ = &ownedSpec_;
    }
    for (std::size_t g = 0; g < num_gpus; ++g) {
        egress_.push_back(std::make_unique<Link>(
            this->name() + ".gpu" + std::to_string(g) + ".egress",
            *spec_));
        ingress_.push_back(std::make_unique<Link>(
            this->name() + ".gpu" + std::to_string(g) + ".ingress",
            *spec_));
    }
}

Tick
Topology::applyPhaseTraffic(const TrafficMatrix& traffic)
{
    gps_assert(traffic.numGpus() == numGpus_,
               "traffic matrix size mismatch");
    CausalRecorder* causal = probes_->causal;
    ProfileCollector* profile = probes_->profile;
    TimelineRecorder* recorder = probes_->recorder;
    Tick worst = 0;
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const std::uint64_t out = traffic.egress(static_cast<GpuId>(g));
        const std::uint64_t in = traffic.ingress(static_cast<GpuId>(g));
        const Tick out_time = linkTime(out);
        const Tick in_time = linkTime(in);
        egress_[g]->record(out, out_time);
        ingress_[g]->record(in, in_time);
        worst = std::max({worst, out_time, in_time});
        totalBytes_ += out;
        if (causal != nullptr && out > 0)
            causal->noteDep(CausalEdge::LinkToRwqInsert);
        if (profile != nullptr) {
            if (out > 0)
                profile->noteLinkBusy(out_time);
            if (in > 0)
                profile->noteLinkBusy(in_time);
        }
        if (recorder != nullptr) {
            const int tid = static_cast<int>(g);
            if (out > 0)
                recorder->complete(
                    tid, "egress", "link", recorder->now(), out_time,
                    {{"bytes", static_cast<double>(out)}});
            if (in > 0)
                recorder->complete(
                    tid, "ingress", "link", recorder->now(), in_time,
                    {{"bytes", static_cast<double>(in)}});
        }
    }
    totalPayload_ += traffic.payload();
    return worst;
}

Tick
Topology::linkTime(std::uint64_t bytes) const
{
    if (spec_->infinite)
        return 0;
    return transferTicks(bytes, spec_->bandwidth);
}

void
Topology::setPathState(GpuId a, GpuId b, PathHealth health, double factor)
{
    // Fatal rather than assert: bad endpoints can arrive straight from a
    // user's --fault spec.
    if (a >= numGpus_ || b >= numGpus_ || a == b)
        gps_fatal("bad path endpoints ", a, "-", b);
    if (factor <= 0.0 || factor > 1.0)
        gps_fatal("degrade factor out of (0, 1]: ", factor);
    if (health == PathHealth::Healthy) {
        paths_.erase(pathKey(a, b));
        return;
    }
    paths_[pathKey(a, b)] = PathState{
        health, health == PathHealth::Degraded ? factor : 1.0};
}

PathState
Topology::pathState(GpuId a, GpuId b) const
{
    const auto it = paths_.find(pathKey(a, b));
    return it == paths_.end() ? PathState{} : it->second;
}

GpuId
Topology::findRelay(GpuId src, GpuId dst) const
{
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId relay = static_cast<GpuId>(g);
        if (relay == src || relay == dst)
            continue;
        if (pathState(src, relay).health != PathHealth::Down &&
            pathState(relay, dst).health != PathHealth::Down)
            return relay;
    }
    return invalidGpu;
}

namespace
{

/** Wire bytes needed to keep transfer time constant at reduced speed. */
std::uint64_t
inflate(std::uint64_t bytes, double factor)
{
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(bytes) / factor));
}

} // namespace

void
Topology::routeAroundFaults(TrafficMatrix& traffic,
                            FaultReport& report) const
{
    if (paths_.empty())
        return;
    gps_assert(traffic.numGpus() == numGpus_,
               "traffic matrix size mismatch");

    // Host-staged fallback path: both directions share the host bridge,
    // so a dead peer pair effectively sees half of a PCIe 3.0 link.
    const double fallback_bw =
        interconnectSpec(InterconnectKind::Pcie3).bandwidth / 2.0;

    // Snapshot semantics: collect all adjustments against the original
    // matrix first, then apply, so relayed flows are never re-penalized
    // by the degraded-path pass.
    struct Extra {
        GpuId src;
        GpuId dst;
        std::uint64_t wire;
    };
    std::vector<Extra> extras;

    for (std::size_t s = 0; s < numGpus_; ++s) {
        for (std::size_t d = 0; d < numGpus_; ++d) {
            if (s == d)
                continue;
            const GpuId src = static_cast<GpuId>(s);
            const GpuId dst = static_cast<GpuId>(d);
            const std::uint64_t bytes = traffic.at(src, dst);
            if (bytes == 0)
                continue;
            const PathState state = pathState(src, dst);
            if (state.health == PathHealth::Healthy)
                continue;

            if (state.health == PathHealth::Degraded) {
                extras.push_back(
                    {src, dst, inflate(bytes, state.factor) - bytes});
                continue;
            }

            // Down: the flow must leave this path entirely.
            traffic.takeWire(src, dst);
            const GpuId relay = findRelay(src, dst);
            if (relay != invalidGpu) {
                const PathState hop1 = pathState(src, relay);
                const PathState hop2 = pathState(relay, dst);
                extras.push_back({src, relay,
                                  inflate(bytes, hop1.factor)});
                extras.push_back({relay, dst,
                                  inflate(bytes, hop2.factor)});
                ++report.reroutes;
                report.reroutedBytes += bytes;
                continue;
            }
            if (!pcieFallback_)
                gps_fatal("no path between GPU ", src, " and GPU ", dst,
                          " and PCIe fallback is disabled: partition ",
                          "unreachable");
            // Keep the flow on the pair's links but inflate its wire
            // occupancy to what the host-staged path would cost.
            std::uint64_t staged = bytes;
            if (!spec_->infinite && spec_->bandwidth > fallback_bw)
                staged = static_cast<std::uint64_t>(
                    std::ceil(static_cast<double>(bytes) *
                              spec_->bandwidth / fallback_bw));
            extras.push_back({src, dst, staged});
            ++report.pcieFallbacks;
            report.pcieFallbackBytes += bytes;
        }
    }

    for (const Extra& extra : extras)
        traffic.addWire(extra.src, extra.dst, extra.wire);
}

void
Topology::exportStats(StatSet& out) const
{
    out.set(name() + ".total_bytes", static_cast<double>(totalBytes_));
    out.set(name() + ".total_payload_bytes",
            static_cast<double>(totalPayload_));
    for (const auto& link : egress_)
        link->exportStats(out);
    for (const auto& link : ingress_)
        link->exportStats(out);
}

void
Topology::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "total_bytes", "bytes",
                [this] { return static_cast<double>(totalBytes_); });
    reg.counter(p + "total_payload_bytes", "bytes",
                [this] { return static_cast<double>(totalPayload_); });
    reg.gauge(p + "path_faults", "paths",
              [this] { return static_cast<double>(paths_.size()); });
    for (const auto& link : egress_)
        link->registerMetrics(reg);
    for (const auto& link : ingress_)
        link->registerMetrics(reg);
}

void
Topology::resetStats()
{
    totalBytes_ = 0;
    totalPayload_ = 0;
    for (auto& link : egress_)
        link->resetStats();
    for (auto& link : ingress_)
        link->resetStats();
}

} // namespace gps
