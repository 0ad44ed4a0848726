/**
 * @file
 * Replays a FaultPlan against a running MultiGpuSystem.
 *
 * The engine is pumped by the runner at phase boundaries: every plan event
 * whose time has arrived is applied at the system's current tick through
 * the paradigm's degradation hooks. Injection is
 * fully deterministic — event order comes from the sorted plan and any
 * victim selection uses the plan's seeded Rng.
 */

#ifndef GPS_FAULT_FAULT_ENGINE_HH
#define GPS_FAULT_FAULT_ENGINE_HH

#include <cstddef>

#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

class MultiGpuSystem;
class Observability;
class Paradigm;

/**
 * Deterministic, seeded fault injector. Its FaultReport counters are
 * its stats, reported as "faults.<field name>".
 */
class FaultEngine : public SimObject
{
  public:
    /**
     * Validates targets against the system; fatal on out-of-range ids.
     * Injected faults are reported to the system's probes: an instant
     * on the fault track and a fault->reroute causal edge each.
     */
    FaultEngine(FaultPlan plan, MultiGpuSystem& system);

    /**
     * Apply, in plan order, every not-yet-fired event due at or before
     * the system's current tick, polling @p obs's sampler (when given)
     * after each. Faults therefore take effect at phase granularity,
     * which keeps the runner's phase timing analytic.
     */
    void pump(Paradigm& paradigm, Observability* obs);

    /** Whether every plan event has fired. */
    bool done() const { return next_ >= plan_.events.size(); }

    FaultReport& report() { return report_; }
    const FaultReport& report() const { return report_; }
    Rng& rng() { return rng_; }
    const FaultPlan& plan() const { return plan_; }

    /**
     * Injection progress: RNG stream position, report counters, and
     * the next-event cursor. The plan itself is rebuilt from the run
     * configuration at restore and must already match.
     */
    void
    transferState(snapshot::StateIO& io)
    {
        io.section("faults");
        rng_.transferState(io);
        for (const auto& f : faultReportFields)
            io.u64(report_.*f.member);
        io.u64(next_);
        if (next_ > plan_.events.size())
            throw snapshot::SnapshotError(
                "snapshot fault cursor exceeds the configured plan");
    }

  private:
    void declareStats(StatVisitor& v) const override;

    void apply(const FaultEvent& ev, Paradigm& paradigm);

    FaultPlan plan_;
    MultiGpuSystem* system_;
    Rng rng_;
    FaultReport report_;
    std::size_t next_ = 0;
};

} // namespace gps

#endif // GPS_FAULT_FAULT_ENGINE_HH
