#include "obs/causal/causal.hh"

#include <algorithm>
#include <map>

#include "common/json.hh"
#include "common/logging.hh"

namespace gps
{

std::string
to_string(CausalEdge edge)
{
    switch (edge) {
      case CausalEdge::KernelToPhase: return "kernel_to_phase";
      case CausalEdge::LinkToRwqInsert: return "link_to_rwq_insert";
      case CausalEdge::RwqInsertToDrain: return "rwq_insert_to_drain";
      case CausalEdge::RwqSaturationStall:
        return "rwq_saturation_stall";
      case CausalEdge::MigrationToStall: return "migration_to_stall";
      case CausalEdge::FaultToReroute: return "fault_to_reroute";
      case CausalEdge::Count: break;
    }
    return "unknown";
}

void
CausalRecorder::transferState(snapshot::StateIO& io)
{
    io.section("causal");
    CausalModel& model = data_.model;
    io.f64(model.linkBandwidth);
    io.b(model.linkInfinite);
    io.u64(model.linkLatency);
    io.u32(model.headerBytes);
    io.u32(model.cacheLineBytes);
    io.u64(model.kernelLaunchOverhead);
    io.f64(model.wqDrainScale);
    io.u64(model.numGpus);
    io.u64(model.effectiveIterations);

    data_.phases.resize(io.count(data_.phases.size(), 1ULL << 32));
    for (CausalPhase& ph : data_.phases) {
        io.str(ph.name);
        io.u64(ph.iter);
        io.u64(ph.start);
        io.u64(ph.prefetchTime);
        io.u64(ph.barrierOverhead);
        io.u64(ph.barrierTime);
        io.u64(ph.phaseTime);
        ph.kernels.resize(io.count(ph.kernels.size(), 1ULL << 24));
        for (KernelTiming& k : ph.kernels) {
            io.u32(k.gpu);
            io.u64(k.tCompute);
            io.u64(k.tL2);
            io.u64(k.tDram);
            io.u64(k.tWalks);
            io.f64(k.batchesLoads);
            io.f64(k.batchesAtomics);
            io.u64(k.tFaults);
            io.u64(k.tShootdowns);
            io.u64(k.tWqStall);
            io.u64(k.egressBytes);
            io.u64(k.ingressBytes);
            io.u64(k.gpuTime);
        }
        io.u64s(ph.barrierEgress, 1ULL << 24);
        io.u64s(ph.barrierIngress, 1ULL << 24);
    }

    data_.iterations.resize(
        io.count(data_.iterations.size(), 1ULL << 32));
    for (CausalIteration& it : data_.iterations) {
        io.u64(it.iter);
        io.u64(it.start);
        io.u64(it.end);
    }
    for (std::uint64_t& e : data_.edges)
        io.u64(e);
    io.u64(data_.droppedPhases);
    io.u64(openIter_);
    io.u64(openStart_);
    io.b(openValid_);
}

const KernelTiming*
CausalPhase::winner() const
{
    const KernelTiming* best = nullptr;
    for (const KernelTiming& k : kernels)
        if (best == nullptr || k.gpuTime > best->gpuTime)
            best = &k;
    return best;
}

namespace
{

const char*
coreLane(const KernelTiming& k)
{
    // The first of the overlappable bounds equal to their max.
    const Tick m = k.core();
    if (k.tCompute == m)
        return "compute";
    if (k.tL2 == m)
        return "l2";
    if (k.tDram == m)
        return "dram";
    return "page_walk";
}

} // namespace

CriticalPathReport
analyzeCriticalPath(const CausalReport& report)
{
    CriticalPathReport out;
    const CausalModel& m = report.model;
    std::map<std::string, Tick> lanes;

    auto emit = [&](const std::string& phase, std::uint64_t iter,
                    const char* lane, int gpu, Tick start, Tick ticks) {
        if (ticks == 0)
            return;
        out.segments.push_back({phase, iter, lane, gpu, start, ticks});
        lanes[lane] += ticks;
        out.totalTicks += ticks;
    };

    // Per-iteration sum of recorded phase times, to expose any residual
    // (simulated time that passed outside phase execution).
    std::map<std::uint64_t, Tick> phase_sum;

    for (const CausalPhase& ph : report.phases) {
        phase_sum[ph.iter] += ph.phaseTime;
        Tick cursor = ph.start;
        emit(ph.name, ph.iter, "host_prefetch", -1, cursor,
             ph.prefetchTime);
        cursor += ph.prefetchTime;

        const Tick slowest =
            ph.phaseTime - ph.prefetchTime - ph.barrierTime;
        if (const KernelTiming* winner = ph.winner(); winner == nullptr) {
            emit(ph.name, ph.iter, "other", -1, cursor, slowest);
        } else {
            const KernelTiming& k = *winner;
            const int gpu = static_cast<int>(k.gpu);
            const auto [remote, kernel_time] = k.time(m);
            const Tick core = k.core();
            const Tick egress = m.linkTime(k.egressBytes);
            const Tick ingress = m.linkTime(k.ingressBytes);
            if (kernel_time >= egress && kernel_time >= ingress) {
                emit(ph.name, ph.iter, coreLane(k), gpu, cursor, core);
                cursor += core;
                emit(ph.name, ph.iter, "remote_round_trip", gpu, cursor,
                     remote);
                cursor += remote;
                emit(ph.name, ph.iter, "fault_stall", gpu, cursor,
                     k.tFaults);
                cursor += k.tFaults;
                emit(ph.name, ph.iter, "tlb_shootdown", gpu, cursor,
                     k.tShootdowns);
                cursor += k.tShootdowns;
                emit(ph.name, ph.iter, "rwq_stall", gpu, cursor,
                     k.tWqStall);
                cursor += k.tWqStall;
                emit(ph.name, ph.iter, "kernel_launch", gpu, cursor,
                     m.kernelLaunchOverhead);
                cursor += m.kernelLaunchOverhead;
                // Idle gap behind a slower sibling GPU (winner per
                // recorded gpuTime, which may exceed this kernel's own
                // bound under fault-inflated recorded times).
                emit(ph.name, ph.iter, "other", gpu, cursor,
                     slowest > kernel_time ? slowest - kernel_time : 0);
            } else if (egress >= ingress) {
                emit(ph.name, ph.iter, "link_egress", gpu, cursor,
                     egress);
                emit(ph.name, ph.iter, "other", gpu, cursor + egress,
                     slowest > egress ? slowest - egress : 0);
            } else {
                emit(ph.name, ph.iter, "link_ingress", gpu, cursor,
                     ingress);
                emit(ph.name, ph.iter, "other", gpu, cursor + ingress,
                     slowest > ingress ? slowest - ingress : 0);
            }
            cursor = ph.start + ph.prefetchTime + slowest;
        }

        const Tick wire = ph.barrierTime - ph.barrierOverhead;
        emit(ph.name, ph.iter, "barrier_wire", -1, cursor, wire);
        emit(ph.name, ph.iter, "barrier_overhead", -1, cursor + wire,
             ph.barrierOverhead);
    }

    // Residual inside each simulated iteration window (normally zero).
    for (const CausalIteration& it : report.iterations) {
        const Tick window = it.end - it.start;
        const auto found = phase_sum.find(it.iter);
        const Tick covered =
            found == phase_sum.end() ? 0 : found->second;
        if (window > covered)
            emit("iteration", it.iter, "other", -1, it.start + covered,
                 window - covered);
    }

    out.laneTicks.assign(lanes.begin(), lanes.end());
    std::sort(out.laneTicks.begin(), out.laneTicks.end(),
              [](const auto& a, const auto& b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return out;
}

std::string
causalToJson(const CausalReport& report)
{
    const CriticalPathReport path = analyzeCriticalPath(report);
    JsonWriter w;
    w.beginObject();
    w.field("schema", std::uint64_t(1));

    w.key("model").beginObject();
    w.field("link_bandwidth", report.model.linkBandwidth);
    w.field("link_infinite", report.model.linkInfinite);
    w.field("link_latency", report.model.linkLatency);
    w.field("header_bytes",
            static_cast<std::uint64_t>(report.model.headerBytes));
    w.field("cache_line_bytes",
            static_cast<std::uint64_t>(report.model.cacheLineBytes));
    w.field("kernel_launch_overhead",
            report.model.kernelLaunchOverhead);
    w.field("wq_drain_scale", report.model.wqDrainScale);
    w.field("num_gpus", report.model.numGpus);
    w.field("effective_iterations", report.model.effectiveIterations);
    w.endObject();

    w.key("edges").beginObject();
    for (std::size_t e = 0;
         e < static_cast<std::size_t>(CausalEdge::Count); ++e)
        w.field(to_string(static_cast<CausalEdge>(e)),
                report.edges[e]);
    w.endObject();
    w.field("dropped_phases", report.droppedPhases);

    w.key("phases").beginArray();
    for (const CausalPhase& ph : report.phases) {
        w.beginObject();
        w.field("name", ph.name);
        w.field("iter", ph.iter);
        w.field("start", ph.start);
        w.field("prefetch_time", ph.prefetchTime);
        w.field("barrier_overhead", ph.barrierOverhead);
        w.field("barrier_time", ph.barrierTime);
        w.field("phase_time", ph.phaseTime);
        w.key("kernels").beginArray();
        for (const KernelTiming& k : ph.kernels) {
            w.beginObject();
            w.field("gpu", static_cast<std::uint64_t>(k.gpu));
            w.field("t_compute", k.tCompute);
            w.field("t_l2", k.tL2);
            w.field("t_dram", k.tDram);
            w.field("t_walks", k.tWalks);
            w.field("batches_loads", k.batchesLoads);
            w.field("batches_atomics", k.batchesAtomics);
            w.field("t_faults", k.tFaults);
            w.field("t_shootdowns", k.tShootdowns);
            w.field("t_wq_stall", k.tWqStall);
            w.field("egress_bytes", k.egressBytes);
            w.field("ingress_bytes", k.ingressBytes);
            w.field("gpu_time", k.gpuTime);
            w.endObject();
        }
        w.endArray();
        w.key("barrier_egress").beginArray();
        for (const std::uint64_t b : ph.barrierEgress)
            w.value(b);
        w.endArray();
        w.key("barrier_ingress").beginArray();
        for (const std::uint64_t b : ph.barrierIngress)
            w.value(b);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("iterations").beginArray();
    for (const CausalIteration& it : report.iterations) {
        w.beginObject();
        w.field("iter", it.iter);
        w.field("start", it.start);
        w.field("end", it.end);
        w.endObject();
    }
    w.endArray();

    w.key("critical_path").beginObject();
    w.field("total_ticks", path.totalTicks);
    w.key("lanes").beginArray();
    for (const auto& [lane, ticks] : path.laneTicks) {
        w.beginObject();
        w.field("lane", lane);
        w.field("ticks", ticks);
        w.endObject();
    }
    w.endArray();
    w.key("segments").beginArray();
    for (const CriticalSegment& seg : path.segments) {
        w.beginObject();
        w.field("phase", seg.phase);
        w.field("iter", seg.iter);
        w.field("lane", seg.lane);
        w.field("gpu", static_cast<double>(seg.gpu));
        w.field("start", seg.start);
        w.field("ticks", seg.ticks);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace gps
