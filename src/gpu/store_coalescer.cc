#include "gpu/store_coalescer.hh"

#include "common/logging.hh"

namespace gps
{

StoreCoalescer::StoreCoalescer(std::string name, std::uint32_t depth,
                               std::uint32_t line_bytes)
    : SimObject(std::move(name)), depth_(depth), lineBytes_(line_bytes),
      lines_(depth, 0)
{
    gps_assert(depth > 0, "coalescer depth must be positive");
}

bool
StoreCoalescer::absorb(Addr addr)
{
    const std::uint64_t line = addr / lineBytes_;
    for (std::uint32_t i = 0; i < valid_; ++i) {
        if (lines_[(head_ + depth_ - 1 - i) % depth_] == line) {
            ++absorbed_;
            return true;
        }
    }
    lines_[head_] = line;
    head_ = (head_ + 1) % depth_;
    if (valid_ < depth_)
        ++valid_;
    ++forwarded_;
    return false;
}

void
StoreCoalescer::reset()
{
    head_ = 0;
    valid_ = 0;
}

void
StoreCoalescer::declareStats(StatVisitor& v) const
{
    v.counter("absorbed", "events", absorbed_);
    v.counter("forwarded", "events", forwarded_);
}

} // namespace gps
