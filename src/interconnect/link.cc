#include "interconnect/link.hh"

#include "common/units.hh"

namespace gps
{

Tick
Link::transferTime(std::uint64_t bytes) const
{
    if (spec_->infinite)
        return 0;
    return transferTicks(bytes, spec_->bandwidth);
}

void
Link::declareStats(StatVisitor& v) const
{
    v.counter("bytes", "bytes", totalBytes_);
    v.counter("busy_us", "us", [this] { return ticksToUs(busyTime_); });
}

} // namespace gps
