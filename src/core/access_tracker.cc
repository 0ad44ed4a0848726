#include "core/access_tracker.hh"

namespace gps
{

void
AccessTracker::declareStats(StatVisitor& v) const
{
    v.counter("marks", "events", marks_, StatScope::StatsOnly);
    v.gauge(
        "touched_page_entries", "pages",
        [this] {
            std::uint64_t touched = 0;
            for (const auto& set : perGpu_)
                touched += set.size();
            return static_cast<double>(touched);
        },
        StatScope::StatsOnly);
}

} // namespace gps
