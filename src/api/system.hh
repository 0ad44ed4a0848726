/**
 * @file
 * Public facade: a configured multi-GPU system instance.
 *
 * Owns the GPUs, interconnect, shared VA space, driver, the simulated
 * clock and the run's observer record (Probes).
 * Paradigms and the runner operate on a MultiGpuSystem; library users
 * construct one from a SystemConfig (Table 1 defaults) and either run the
 * bundled workloads through Runner or drive the Driver API directly.
 */

#ifndef GPS_API_SYSTEM_HH
#define GPS_API_SYSTEM_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/units.hh"
#include "core/gps_config.hh"
#include "driver/driver.hh"
#include "gpu/gpu_config.hh"
#include "gpu/gpu_model.hh"
#include "interconnect/pcie.hh"
#include "interconnect/topology.hh"
#include "mem/address_space.hh"
#include "obs/probes.hh"

namespace gps
{

class FaultEngine;
class MetricRegistry;

/** Full system configuration. */
struct SystemConfig
{
    std::size_t numGpus = 4;
    InterconnectKind interconnect = InterconnectKind::Pcie3;

    /**
     * Nodes the GPUs are split across. 1 keeps the flat single-switch
     * topology (byte-identical to builds without the knob); above 1 the
     * GPUs divide evenly into nodes joined by interNode uplinks.
     */
    std::size_t numNodes = 1;

    /** Inter-node fabric joining the nodes when numNodes > 1. */
    InterconnectKind interNode = InterconnectKind::IbNdr;

    /**
     * Link-bandwidth multiplier for what-if exploration. 1.0 keeps the
     * interconnect on its static spec (byte-identical to builds
     * without the knob).
     */
    double linkBandwidthScale = 1.0;

    /** GPS allocations use 64 KB pages by default (Section 5.2). */
    std::uint64_t pageBytes = 64 * KiB;

    GpuConfig gpu;
    GpsConfig gps;
};

/** A simulated multi-GPU system. */
class MultiGpuSystem
{
  public:
    explicit MultiGpuSystem(const SystemConfig& config);

    MultiGpuSystem(const MultiGpuSystem&) = delete;
    MultiGpuSystem& operator=(const MultiGpuSystem&) = delete;

    const SystemConfig& config() const { return config_; }
    std::size_t numGpus() const { return gpus_.size(); }

    GpuModel& gpu(GpuId id) { return *gpus_.at(id); }
    const GpuModel& gpu(GpuId id) const { return *gpus_.at(id); }

    Driver& driver() { return *driver_; }
    Topology& topology() { return *topology_; }
    const Topology& topology() const { return *topology_; }
    AddressSpace& addressSpace() { return vas_; }
    const PageGeometry& geometry() const { return vas_.geometry(); }

    /**
     * Fault engine driving this run, when fault injection is active
     * (installed by the runner for the run's duration, else nullptr).
     */
    FaultEngine* faults() { return faults_; }
    void installFaultEngine(FaultEngine* engine) { faults_ = engine; }

    /**
     * Simulated time. Phase timing is analytic, so the runner computes
     * each phase's end tick and moves the clock there directly.
     */
    Tick now() const { return now_; }

    /** Move the clock to @p when; time never moves backwards. */
    void advanceTo(Tick when);

    /**
     * Observers for the current run. Components built by (or on top
     * of) this system hold its address and test the fields they feed;
     * the runner fills the record for a run and clears it afterwards.
     */
    Probes& probes() { return probes_; }
    const Probes& probes() const { return probes_; }

    /** Table 1 style parameter dump. */
    ConfigDump configDump() const;

    /** Snapshot of every component's statistics. */
    StatSet stats() const;

    /** Register every component's metrics (same set as stats()). */
    void registerMetrics(MetricRegistry& reg) const;

    void resetStats();

  private:
    SystemConfig config_;
    Probes probes_;
    AddressSpace vas_;
    std::vector<std::unique_ptr<GpuModel>> gpus_;
    std::unique_ptr<Topology> topology_;
    std::unique_ptr<Driver> driver_;
    Tick now_ = 0;
    FaultEngine* faults_ = nullptr;
};

} // namespace gps

#endif // GPS_API_SYSTEM_HH
