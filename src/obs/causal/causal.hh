/**
 * @file
 * Causal dependency recorder: the raw material for critical-path
 * analysis and what-if speedup prediction.
 *
 * The runner mirrors every input of its phase-timing formula into a
 * bounded program-activity graph: per-kernel service demands (with the
 * remote round-trip *batch counts* rather than their tick products, so
 * a predictor can re-derive latency terms under a different link), the
 * post-reroute wire bytes behind every link-time term, and the fixed
 * serialized overheads. Dependency edges observed below the runner
 * (link transfer -> RWQ insert -> drain, migration -> stall,
 * fault -> reroute) arrive through noteDep from the write queues,
 * interconnect, driver and fault engine via the system's Probes record;
 * the runner adds one completion -> barrier edge per timed kernel.
 *
 * Everything here is plain data guarded by null probe pointers: with
 * causal tracing disabled no recorder exists and the simulation is
 * byte-identical to a build without this file.
 */

#ifndef GPS_OBS_CAUSAL_CAUSAL_HH
#define GPS_OBS_CAUSAL_CAUSAL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Timing-model constants the predictor needs to replay the graph. */
struct CausalModel
{
    /** Link bandwidth in effect during the run (post scaling). */
    double linkBandwidth = 0.0;
    bool linkInfinite = false;
    Tick linkLatency = 0;
    std::uint32_t headerBytes = 0;
    std::uint32_t cacheLineBytes = 0;
    Tick kernelLaunchOverhead = 0;

    /** RWQ drain-stall divisor in effect during the run. */
    double wqDrainScale = 1.0;

    std::uint64_t numGpus = 0;

    /** Full run length the recorded window extrapolates to. */
    std::uint64_t effectiveIterations = 1;
};

/** One kernel's contribution to a phase (timing-formula inputs). */
struct CausalKernel
{
    std::uint32_t gpu = 0;

    // Overlappable core bounds (compose as a max, link-independent).
    Tick tCompute = 0;
    Tick tL2 = 0;
    Tick tDram = 0;
    Tick tWalks = 0;

    /** Remote load/atomic round-trip batch counts (ceil'd doubles). */
    double batchesLoads = 0.0;
    double batchesAtomics = 0.0;

    // Serialized terms. tWqStall is at the recorded wqDrainScale.
    Tick tFaults = 0;
    Tick tShootdowns = 0;
    Tick tWqStall = 0;

    /** Post-reroute wire bytes behind this GPU's link-time terms. */
    std::uint64_t egressBytes = 0;
    std::uint64_t ingressBytes = 0;

    /** Recorded max(kernel, egress, ingress) for this GPU. */
    Tick gpuTime = 0;
};

/** One recorded phase: every input of the phase-time formula. */
struct CausalPhase
{
    std::string name;
    std::uint64_t iter = 0;
    Tick start = 0;
    Tick prefetchTime = 0;
    Tick barrierOverhead = 0;
    Tick barrierTime = 0; ///< busiest barrier link + overhead
    Tick phaseTime = 0;   ///< prefetch + slowest + barrier

    std::vector<CausalKernel> kernels;

    /** Post-reroute per-GPU barrier wire bytes. */
    std::vector<std::uint64_t> barrierEgress;
    std::vector<std::uint64_t> barrierIngress;
};

/** One simulated iteration's time window. */
struct CausalIteration
{
    std::uint64_t iter = 0;
    Tick start = 0;
    Tick end = 0;
};

/** Dependency-edge classes observed below the runner. */
enum class CausalEdge : std::uint8_t {
    KernelToPhase,      ///< kernel completion -> phase barrier
    LinkToRwqInsert,    ///< link transfer feeding an RWQ insert
    RwqInsertToDrain,   ///< RWQ insert -> drain toward the interconnect
    RwqSaturationStall, ///< saturated drain stalling the producing SM
    MigrationToStall,   ///< subscription migration -> access stall
    FaultToReroute,     ///< injected fault -> rerouted traffic
    Count,
};

std::string to_string(CausalEdge edge);

/** The per-run activity graph (plain data, rides on the ObsReport). */
struct CausalReport
{
    CausalModel model;
    std::vector<CausalPhase> phases;
    std::vector<CausalIteration> iterations;
    std::array<std::uint64_t,
               static_cast<std::size_t>(CausalEdge::Count)>
        edges{};
    std::uint64_t droppedPhases = 0;
};

/** Live per-run recorder (null probe pointers guard every hook). */
class CausalRecorder
{
  public:
    explicit CausalRecorder(std::size_t max_phases = 1 << 16)
        : maxPhases_(max_phases)
    {}

    void setModel(const CausalModel& model) { data_.model = model; }
    void
    setEffectiveIterations(std::uint64_t n)
    {
        data_.model.effectiveIterations = n;
    }

    /** Runner hook: a new simulated iteration starts at @p start. */
    void
    beginIteration(std::uint64_t iter, Tick start)
    {
        openIter_ = iter;
        openStart_ = start;
        openValid_ = true;
    }

    /** Runner hook: the open iteration ended at @p end. */
    void
    endIteration(Tick end)
    {
        if (!openValid_)
            return;
        data_.iterations.push_back({openIter_, openStart_, end});
        openValid_ = false;
    }

    /** Iteration the phase being recorded belongs to. */
    std::uint64_t currentIteration() const { return openIter_; }

    /** Runner hook: one fully-timed phase (bounded; drops count). */
    void
    addPhase(CausalPhase phase)
    {
        if (data_.phases.size() >= maxPhases_) {
            ++data_.droppedPhases;
            return;
        }
        data_.phases.push_back(std::move(phase));
    }

    /** noteDep hook: one observed dependency edge of class @p kind. */
    void
    noteDep(CausalEdge kind, std::uint64_t n = 1)
    {
        data_.edges[static_cast<std::size_t>(kind)] += n;
    }

    const CausalReport& data() const { return data_; }
    std::uint64_t dropped() const { return data_.droppedPhases; }

    /** Distill into the plain-data report (copies; recorder lives on). */
    CausalReport finalize() const { return data_; }

    /** Serialize the full graph (snapshot/restore support). */
    void saveState(snapshot::Serializer& out) const;
    void restoreState(snapshot::Deserializer& in);

  private:
    std::size_t maxPhases_;
    CausalReport data_;
    std::uint64_t openIter_ = 0;
    Tick openStart_ = 0;
    bool openValid_ = false;
};

/** One attributed span of the extracted critical path. */
struct CriticalSegment
{
    std::string phase;
    std::uint64_t iter = 0;

    /** Attribution lane ("compute", "link_egress", "rwq_stall", ...). */
    std::string lane;

    /** GPU the span executed on; -1 for system-level spans. */
    int gpu = -1;

    Tick start = 0;
    Tick ticks = 0;
};

/** Critical path plus per-lane attribution of the simulated window. */
struct CriticalPathReport
{
    std::vector<CriticalSegment> segments;

    /** lane -> simulated ticks on the critical path. */
    std::vector<std::pair<std::string, Tick>> laneTicks;

    /** Σ segment ticks == simulated window end - start. */
    Tick totalTicks = 0;
};

/**
 * Walk the recorded phases and attribute every tick of the simulated
 * window to the dependency chain that bounded it: per phase the
 * prefetch span, the slowest GPU's binding term (kernel bound broken
 * down into its additive pieces, or the link direction that outran the
 * kernel), and the barrier; inter-phase residual goes to "other".
 */
CriticalPathReport analyzeCriticalPath(const CausalReport& report);

/** Serialize graph + critical path as one JSON document. */
std::string causalToJson(const CausalReport& report);

} // namespace gps

#endif // GPS_OBS_CAUSAL_CAUSAL_HH
