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
TimingConstants::linkTime(std::uint64_t bytes) const
{
    return linkInfinite ? 0 : transferTicks(bytes, linkBandwidth);
}

KernelTime
KernelTiming::time(const TimingConstants& c, double wq_drain) const
{
    // Remote demand loads and atomics: round-trip latency divided by
    // the parallelism the GPU can sustain. These sit on the dependence
    // critical path, so they extend the kernel rather than hiding under
    // it. Bandwidth occupancy of the responses is charged at the phase
    // level through the traffic matrix.
    KernelTime t;
    if (!c.linkInfinite) {
        const Tick round_trip =
            2 * c.linkLatency + c.linkTime(c.cacheLineBytes + c.headerBytes);
        for (const double batches : {batchesLoads, batchesAtomics})
            if (batches > 0.0)
                t.remote += static_cast<Tick>(
                    batches * static_cast<double>(round_trip));
    }
    const Tick wq_stall =
        wq_drain == 1.0
            ? tWqStall
            : static_cast<Tick>(static_cast<double>(tWqStall) / wq_drain);
    t.kernel = core() + t.remote + tFaults + tShootdowns + wq_stall +
               c.kernelLaunchOverhead;
    return t;
}

TimingConstants
timingConstants(const GpuConfig& gpu, const InterconnectSpec& link)
{
    return {link.bandwidth,       link.infinite,
            link.latency,         link.headerBytes,
            gpu.cacheLineBytes,   gpu.kernelLaunchOverhead};
}

KernelTiming
GpuModel::kernelTiming(const KernelCounters& counters) const
{
    // Whole batches of @p n operations, @p per_batch at a time.
    const auto batches = [](std::uint64_t n, std::uint32_t per_batch) {
        return n == 0 ? 0.0
                      : std::ceil(static_cast<double>(n) /
                                  static_cast<double>(per_batch));
    };
    KernelTiming k;
    k.gpu = id_;

    // Issue-throughput bound.
    const double compute_cycles =
        static_cast<double>(counters.computeInstrs) / config_.issueWidth();
    k.tCompute =
        static_cast<Tick>(compute_cycles * config_.clockPeriodTicks());

    // L2 throughput bound: every access moves one line through L2.
    const std::uint64_t l2_bytes =
        (counters.l2Hits + counters.l2Misses) *
        static_cast<std::uint64_t>(config_.cacheLineBytes);
    k.tL2 = transferTicks(l2_bytes, config_.l2Bandwidth);

    // Local DRAM bandwidth bound.
    k.tDram = transferTicks(counters.dramBytes, config_.dramBandwidth);

    // Conventional page walks, overlapped across walkers.
    k.tWalks = static_cast<Tick>(
        static_cast<double>(counters.tlbMisses) *
        static_cast<double>(config_.pageWalkLatency) /
        static_cast<double>(faultTiming_.walkConcurrency));

    k.batchesLoads = batches(counters.remoteLoads, config_.remoteLoadMlp);
    k.batchesAtomics =
        batches(counters.remoteAtomics, config_.remoteAtomicMlp);

    // Serialized stalls: page faults (batched), TLB shootdowns, and
    // saturated-WQ drains stalling the producing SM.
    k.tFaults = static_cast<Tick>(
        batches(counters.pageFaults, faultTiming_.faultConcurrency) *
        static_cast<double>(faultTiming_.faultLatency));
    k.tShootdowns = counters.tlbShootdowns * faultTiming_.shootdownLatency;
    k.tWqStall = counters.wqStallTicks;
    return k;
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
