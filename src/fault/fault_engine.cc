#include "fault/fault_engine.hh"

#include "api/system.hh"
#include "common/logging.hh"
#include "interconnect/topology.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/observability.hh"
#include "obs/timeline.hh"
#include "paradigm/paradigm.hh"

namespace gps
{

FaultEngine::FaultEngine(FaultPlan plan, MultiGpuSystem& system)
    : plan_(std::move(plan)), system_(&system), rng_(plan_.seed)
{
    plan_.sort();
    const std::size_t num_gpus = system.numGpus();
    for (const FaultEvent& ev : plan_.events) {
        if (ev.a != invalidGpu && ev.a >= num_gpus)
            gps_fatal("fault '", ev.describe(), "' targets GPU ", ev.a,
                      " but the system has ", num_gpus, " GPUs");
        if (ev.b != invalidGpu && ev.b >= num_gpus)
            gps_fatal("fault '", ev.describe(), "' targets GPU ", ev.b,
                      " but the system has ", num_gpus, " GPUs");
        if (ev.kind == FaultKind::PageRetire && ev.a == invalidGpu)
            gps_fatal("fault '", ev.describe(),
                      "' needs a concrete GPU target");
    }
    system.topology().setPcieFallback(plan_.pcieFallback);
}

void
FaultEngine::pump(Paradigm& paradigm, Observability* obs)
{
    const Tick now = system_->now();
    while (next_ < plan_.events.size() &&
           plan_.events[next_].time <= now) {
        apply(plan_.events[next_++], paradigm);
        if (obs != nullptr)
            obs->poll(now);
    }
}

void
FaultEngine::apply(const FaultEvent& ev, Paradigm& paradigm)
{
    ++report_.faultsInjected;
    const Probes& probes = system_->probes();
    if (probes.recorder != nullptr)
        probes.recorder->instant(TimelineRecorder::faultTid,
                                 ev.describe(), "fault", ev.time);
    if (probes.causal != nullptr)
        probes.causal->noteDep(CausalEdge::FaultToReroute);
    Topology& topo = system_->topology();

    const auto for_each_pair = [&](auto&& fn) {
        if (ev.b != invalidGpu) {
            fn(ev.a, ev.b);
            return;
        }
        for (std::size_t peer = 0; peer < system_->numGpus(); ++peer)
            if (peer != ev.a)
                fn(ev.a, static_cast<GpuId>(peer));
    };

    switch (ev.kind) {
    case FaultKind::LinkDown:
        for_each_pair([&](GpuId a, GpuId b) {
            topo.setPathState(a, b, PathHealth::Down);
            ++report_.linksDown;
        });
        break;
    case FaultKind::LinkDegrade:
        for_each_pair([&](GpuId a, GpuId b) {
            topo.setPathState(a, b, PathHealth::Degraded, ev.factor);
            ++report_.linksDegraded;
        });
        break;
    case FaultKind::LinkRestore:
        for_each_pair([&](GpuId a, GpuId b) {
            topo.setPathState(a, b, PathHealth::Healthy);
            ++report_.linksRestored;
        });
        break;
    case FaultKind::PageRetire:
        paradigm.onFaultPageRetire(ev.a, ev.count, report_);
        break;
    case FaultKind::WqSaturate:
        ++report_.wqSaturations;
        paradigm.onFaultWqSaturate(ev.a, true, report_);
        break;
    case FaultKind::WqRestore:
        paradigm.onFaultWqSaturate(ev.a, false, report_);
        break;
    }
}

void
FaultEngine::registerMetrics(MetricRegistry& reg) const
{
    const FaultReport& r = report_;
    reg.counter("fault.injected", "events",
                [&r] { return static_cast<double>(r.faultsInjected); });
    reg.counter("fault.links_down", "links",
                [&r] { return static_cast<double>(r.linksDown); });
    reg.counter("fault.links_degraded", "links",
                [&r] { return static_cast<double>(r.linksDegraded); });
    reg.counter("fault.links_restored", "links",
                [&r] { return static_cast<double>(r.linksRestored); });
    reg.counter("fault.reroutes", "flows",
                [&r] { return static_cast<double>(r.reroutes); });
    reg.counter("fault.rerouted_bytes", "bytes",
                [&r] { return static_cast<double>(r.reroutedBytes); });
    reg.counter("fault.pcie_fallbacks", "flows",
                [&r] { return static_cast<double>(r.pcieFallbacks); });
    reg.counter("fault.pages_retired", "pages",
                [&r] { return static_cast<double>(r.pagesRetired); });
    reg.counter("fault.replicas_lost", "pages",
                [&r] { return static_cast<double>(r.replicasLost); });
    reg.counter("fault.resubscribes", "pages",
                [&r] { return static_cast<double>(r.resubscribes); });
    reg.counter("fault.wq_saturations", "events",
                [&r] { return static_cast<double>(r.wqSaturations); });
}

} // namespace gps
