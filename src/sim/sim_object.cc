#include "sim/sim_object.hh"

namespace gps
{

void
StatVisitor::visit(const SimObject& obj)
{
    std::string outer = std::exchange(prefix_, obj.name() + '.');
    obj.declareStats(*this);
    prefix_ = std::move(outer);
}

void
StatWriter::declare(std::string name, MetricKind kind, const char* unit,
                    Getter read, StatScope scope)
{
    (void)kind;
    (void)unit;
    if (scope == StatScope::MetricsOnly)
        return;
    const double value = read();
    if (scope == StatScope::NonzeroStat && value == 0.0)
        return;
    out_->set(name, value);
}

void
MetricRegistrar::declare(std::string name, MetricKind kind,
                         const char* unit, Getter read, StatScope scope)
{
    if (scope == StatScope::StatsOnly)
        return;
    if (kind == MetricKind::Counter)
        reg_->counter(std::move(name), unit, std::move(read));
    else
        reg_->gauge(std::move(name), unit, std::move(read));
}

} // namespace gps
