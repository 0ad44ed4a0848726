/**
 * @file
 * Simulated-time metric sampler: turns registry reads into time series.
 *
 * The runner polls the sampler at every instrumentation point (each
 * kernel completion tick in ascending order, each phase barrier, each
 * fault injection, end of run); the sampler records one snapshot of
 * every registered metric whenever at least `every` ticks of simulated
 * time have passed since the previous sample. Samples are therefore
 * taken at the first instrumentation point at or after each period
 * boundary — simulated time is only known at those instants, so exact
 * period alignment is neither possible nor meaningful.
 */

#ifndef GPS_OBS_SAMPLER_HH
#define GPS_OBS_SAMPLER_HH

#include <vector>

#include "common/types.hh"
#include "obs/metric_registry.hh"

namespace gps
{

/** Periodic snapshot recorder over one MetricRegistry. */
class Sampler
{
  public:
    /**
     * @param registry metrics to sample (must outlive the sampler)
     * @param every minimum simulated ticks between samples; 0 disables
     *        periodic sampling (only finish() records)
     */
    Sampler(const MetricRegistry& registry, Tick every);

    /**
     * Record the baseline sample at run start, unconditionally: every
     * series then has a row at the start tick, so delta computations
     * over the first period are not skewed by the first poll() landing
     * anywhere up to `every` ticks in.
     */
    void start(Tick now);

    /** Record a sample at @p now if one is due. */
    void poll(Tick now);

    /** Record a terminal sample at @p now unconditionally (unless one
     *  was already taken at this exact tick). */
    void finish(Tick now);

    /** Tick of each recorded sample, in increasing order. */
    const std::vector<Tick>& sampleTicks() const { return ticks_; }

    /**
     * Column-major series: columns()[m][s] is metric m's value at
     * sample s, with m indexing registry.metrics().
     */
    const std::vector<std::vector<double>>& columns() const
    {
        return columns_;
    }

    Tick every() const { return every_; }

    /**
     * Replace the recorded series with checkpointed state (snapshot
     * restore); the column count must match the registry.
     */
    void
    restore(std::vector<Tick> ticks,
            std::vector<std::vector<double>> columns)
    {
        ticks_ = std::move(ticks);
        columns_ = std::move(columns);
    }

  private:
    void record(Tick now);

    const MetricRegistry* registry_;
    Tick every_;
    std::vector<Tick> ticks_;
    std::vector<std::vector<double>> columns_;
};

} // namespace gps

#endif // GPS_OBS_SAMPLER_HH
