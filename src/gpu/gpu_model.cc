#include "gpu/gpu_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"

namespace gps
{

void
KernelCounters::exportStats(StatSet& out, const std::string& prefix) const
{
    for (const auto& f : kernelCounterFields)
        out.add(prefix + '.' + f.name, static_cast<double>(this->*f.member));
}

GpuModel::GpuModel(GpuId id, const GpuConfig& config, PageGeometry geometry)
    : SimObject("gpu" + std::to_string(id)), id_(id), config_(config),
      l2_(std::make_unique<CacheModel>(name() + ".l2",
                                       config.l2CacheBytes,
                                       config.cacheLineBytes,
                                       config.l2Ways)),
      tlb_(std::make_unique<Tlb>(name() + ".tlb", config.tlbEntries,
                                 config.tlbWays)),
      coalescer_(std::make_unique<StoreCoalescer>(name() + ".sm_coalescer",
                                                  config.smCoalescerDepth,
                                                  config.cacheLineBytes)),
      memory_(std::make_unique<PhysicalMemory>(name() + ".dram",
                                               config.globalMemoryBytes,
                                               geometry))
{
}

void
GpuModel::l2Path(Addr addr, bool is_write, KernelCounters& counters)
{
    const CacheResult result = l2_->access(addr, is_write);
    if (result.hit) {
        ++counters.l2Hits;
    } else {
        ++counters.l2Misses;
        counters.dramBytes += config_.cacheLineBytes;
    }
    counters.dramBytes += result.writebackBytes;
}

bool
GpuModel::tlbAccess(PageNum vpn, KernelCounters& counters)
{
    if (tlb_->lookup(vpn))
        return false;
    ++counters.tlbMisses;
    tlb_->fill(vpn);
    return true;
}

Tick
GpuModel::kernelTime(const KernelCounters& counters,
                     const Topology& topology) const
{
    return kernelTimeBreakdown(counters, topology).total;
}

KernelTimeBreakdown
GpuModel::kernelTimeBreakdown(const KernelCounters& counters,
                              const Topology& topology) const
{
    KernelTimeBreakdown bd;
    const double period = config_.clockPeriodTicks();

    // Issue-throughput bound.
    const double compute_cycles =
        static_cast<double>(counters.computeInstrs) / config_.issueWidth();
    bd.tCompute = static_cast<Tick>(compute_cycles * period);

    // L2 throughput bound: every access moves one line through L2.
    const std::uint64_t l2_bytes =
        (counters.l2Hits + counters.l2Misses) *
        static_cast<std::uint64_t>(config_.cacheLineBytes);
    bd.tL2 = transferTicks(l2_bytes, config_.l2Bandwidth);

    // Local DRAM bandwidth bound.
    bd.tDram = transferTicks(counters.dramBytes, config_.dramBandwidth);

    // Remote demand loads and atomics: round-trip latency divided by
    // the parallelism the GPU can sustain. These sit on the dependence
    // critical path, so they extend the kernel rather than hiding under
    // it. Bandwidth occupancy of the responses is charged at the phase
    // level through the traffic matrix.
    if (!topology.spec().infinite) {
        const Tick line_time =
            topology.linkTime(config_.cacheLineBytes +
                              topology.spec().headerBytes);
        const Tick round_trip = 2 * topology.latency() + line_time;
        if (counters.remoteLoads > 0) {
            const double batches =
                std::ceil(static_cast<double>(counters.remoteLoads) /
                          static_cast<double>(config_.remoteLoadMlp));
            bd.tRemote += static_cast<Tick>(
                batches * static_cast<double>(round_trip));
        }
        if (counters.remoteAtomics > 0) {
            const double batches = std::ceil(
                static_cast<double>(counters.remoteAtomics) /
                static_cast<double>(config_.remoteAtomicMlp));
            bd.tRemote += static_cast<Tick>(
                batches * static_cast<double>(round_trip));
        }
    }

    // Conventional page walks, overlapped across walkers.
    bd.tWalks = static_cast<Tick>(
        static_cast<double>(counters.tlbMisses) *
        static_cast<double>(config_.pageWalkLatency) /
        static_cast<double>(faultTiming_.walkConcurrency));

    // Overlappable bounds compose as a max; remote stalls extend it.
    Tick t_core =
        std::max({bd.tCompute, bd.tL2, bd.tDram, bd.tWalks}) + bd.tRemote;

    // Serialized stalls: page faults (batched) and TLB shootdowns.
    if (counters.pageFaults > 0) {
        const double batches =
            std::ceil(static_cast<double>(counters.pageFaults) /
                      static_cast<double>(faultTiming_.faultConcurrency));
        bd.tFaults = static_cast<Tick>(
            batches * static_cast<double>(faultTiming_.faultLatency));
        t_core += bd.tFaults;
    }
    bd.tShootdowns = counters.tlbShootdowns * faultTiming_.shootdownLatency;
    t_core += bd.tShootdowns;

    // Saturated-WQ drains stall the producing SM serially.
    bd.tWqStall = counters.wqStallTicks;
    t_core += bd.tWqStall;

    bd.total = t_core;
    return bd;
}

void
GpuModel::declareStats(StatVisitor& v) const
{
    v.visit(*l2_);
    v.visit(*tlb_);
    v.visit(*coalescer_);
    v.visit(*memory_);
}

} // namespace gps
