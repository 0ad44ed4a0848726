/**
 * @file
 * One kernel's timing record and the kernel-time formula evaluated from
 * it. GpuModel fills the record's service demands, the runner adds the
 * phase's link terms, and the profiler, the critical path and the
 * what-if predictor all read the same record.
 */

#ifndef GPS_GPU_KERNEL_TIMING_HH
#define GPS_GPU_KERNEL_TIMING_HH

#include <algorithm>
#include <cstdint>

#include "common/types.hh"

namespace gps
{

/** Link and launch constants of the kernel-time formula. */
struct TimingConstants
{
    /** Link bandwidth in effect during the run (post scaling). */
    double linkBandwidth = 0.0;
    bool linkInfinite = false;
    Tick linkLatency = 0;
    std::uint32_t headerBytes = 0;
    std::uint32_t cacheLineBytes = 0;
    Tick kernelLaunchOverhead = 0;

    /** Wire time of @p bytes on one link (0 on an infinite link). */
    Tick linkTime(std::uint64_t bytes) const;
};

/** The formula's result for one kernel. */
struct KernelTime
{
    /** Remote load/atomic round-trip stalls. */
    Tick remote = 0;

    /** Core bound + remote stalls + serialized terms + launch. */
    Tick kernel = 0;
};

/**
 * One kernel's timing record. The overlappable bounds compose as a
 * max; remote stalls are kept as round-trip batch counts so the
 * formula can re-derive them under a scaled link.
 */
struct KernelTiming
{
    std::uint32_t gpu = 0;

    // Overlappable core bounds (link-independent).
    Tick tCompute = 0;
    Tick tL2 = 0;
    Tick tDram = 0;
    Tick tWalks = 0;

    /** Remote load/atomic round-trip batch counts (ceil'd doubles). */
    double batchesLoads = 0.0;
    double batchesAtomics = 0.0;

    // Serialized terms. tWqStall is at the run's RWQ drain scale.
    Tick tFaults = 0;
    Tick tShootdowns = 0;
    Tick tWqStall = 0;

    /** Post-reroute wire bytes behind this GPU's link-time terms. */
    std::uint64_t egressBytes = 0;
    std::uint64_t ingressBytes = 0;

    /** max(kernel, egress, ingress) as the runner timed this GPU. */
    Tick gpuTime = 0;

    /** The overlappable bounds composed. */
    Tick core() const { return std::max({tCompute, tL2, tDram, tWalks}); }

    /**
     * The kernel-time formula under @p c, with the RWQ stall divided by
     * @p wq_drain (a drain-speed factor relative to the recorded run).
     */
    KernelTime time(const TimingConstants& c, double wq_drain = 1.0) const;
};

} // namespace gps

#endif // GPS_GPU_KERNEL_TIMING_HH
