/**
 * @file
 * Base class for named simulated components, and the one declaration of
 * their statistics.
 *
 * Each component lists every counter and gauge it reports once, in
 * declareStats(), as (name, unit, getter). RunResult::stats (through a
 * StatWriter) and the observability metric registry (through a
 * MetricRegistrar) are both filled from that list, so the two outputs
 * cannot drift apart.
 */

#ifndef GPS_SIM_SIM_OBJECT_HH
#define GPS_SIM_SIM_OBJECT_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/stats.hh"
#include "obs/metric_registry.hh"

namespace gps
{

class StatVisitor;

/**
 * A named component of the simulated system. Components declare their
 * counters through declareStats() so the runner can aggregate a full
 * system snapshot after a run.
 */
class SimObject
{
  public:
    explicit SimObject(std::string name)
        : name_(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;

    const std::string& name() const { return name_; }

  protected:
    friend class StatVisitor;

    /**
     * Declare every stat of this component, named relative to name(),
     * and visit the children that report their own. Getters must be
     * read-only (see obs/metric_registry.hh).
     */
    virtual void declareStats(StatVisitor& v) const { (void)v; }

  private:
    std::string name_;
};

/** Which outputs a declared stat appears in. */
enum class StatScope : std::uint8_t {
    Both,        ///< RunResult::stats and the metric registry.
    StatsOnly,   ///< RunResult::stats only.
    MetricsOnly, ///< The metric registry only.
    NonzeroStat, ///< The registry always; RunResult::stats once nonzero.
};

/** Receives the stats components declare. */
class StatVisitor
{
  public:
    using Getter = std::function<double()>;

    virtual ~StatVisitor() = default;

    /** Take @p obj's declarations, each named "<obj.name()>.<stat>". */
    void visit(const SimObject& obj);

    /** A monotonically non-decreasing event count. */
    void
    counter(std::string_view stat, const char* unit, Getter read,
            StatScope scope = StatScope::Both)
    {
        declare(prefix_ + std::string(stat), MetricKind::Counter, unit,
                std::move(read), scope);
    }

    /** An instantaneous level (occupancy, hit rate, ...). */
    void
    gauge(std::string_view stat, const char* unit, Getter read,
          StatScope scope = StatScope::Both)
    {
        declare(prefix_ + std::string(stat), MetricKind::Gauge, unit,
                std::move(read), scope);
    }

    /** A counter read straight from an integer member. */
    template <std::integral T>
    void
    counter(std::string_view stat, const char* unit, const T& field,
            StatScope scope = StatScope::Both)
    {
        counter(stat, unit, [&field] { return static_cast<double>(field); },
                scope);
    }

    /** A gauge read straight from an integer member. */
    template <std::integral T>
    void
    gauge(std::string_view stat, const char* unit, const T& field,
          StatScope scope = StatScope::Both)
    {
        gauge(stat, unit, [&field] { return static_cast<double>(field); },
              scope);
    }

  protected:
    virtual void declare(std::string name, MetricKind kind,
                         const char* unit, Getter read,
                         StatScope scope) = 0;

  private:
    std::string prefix_;
};

/** Writes each declared stat's current value into a StatSet. */
class StatWriter final : public StatVisitor
{
  public:
    explicit StatWriter(StatSet& out) : out_(&out) {}

  protected:
    void declare(std::string name, MetricKind kind, const char* unit,
                 Getter read, StatScope scope) override;

  private:
    StatSet* out_;
};

/**
 * Registers each declared stat into a MetricRegistry; the getters
 * capture the components, which must outlive the registry.
 */
class MetricRegistrar final : public StatVisitor
{
  public:
    explicit MetricRegistrar(MetricRegistry& reg) : reg_(&reg) {}

  protected:
    void declare(std::string name, MetricKind kind, const char* unit,
                 Getter read, StatScope scope) override;

  private:
    MetricRegistry* reg_;
};

} // namespace gps

#endif // GPS_SIM_SIM_OBJECT_HH
