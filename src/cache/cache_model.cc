#include "cache/cache_model.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

namespace
{

/** Sets of a cache geometry, validated before anything divides by it. */
std::size_t
setCount(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
         std::uint32_t ways)
{
    gps_assert(line_bytes > 0, "cache line size must be positive");
    gps_assert(ways > 0, "cache associativity must be positive");
    gps_assert(ways <= 64, "cache associativity ", ways,
               " exceeds the 64-way limit of the way masks");
    gps_assert(capacity_bytes % (static_cast<std::uint64_t>(line_bytes) *
                                 ways) == 0,
               "cache capacity not divisible by line*ways");
    const std::uint64_t sets = capacity_bytes / line_bytes / ways;
    gps_assert(sets > 0, "cache too small: ", capacity_bytes, " bytes");
    return static_cast<std::size_t>(sets);
}

/** Smallest window table: most pages touch only a few windows. */
constexpr unsigned minWindowBits = 4;

} // namespace

CacheModel::CacheModel(std::string name, std::uint64_t capacity_bytes,
                       std::uint32_t line_bytes, std::uint32_t ways)
    : SimObject(std::move(name)), capacityBytes_(capacity_bytes),
      lineBytes_(line_bytes), ways_(ways),
      sets_(setCount(capacity_bytes, line_bytes, ways)),
      tags_(sets_ * ways_), lastUse_(sets_ * ways_), state_(sets_)
{
    resetWindows(std::size_t(1) << minWindowBits);
}

std::uint64_t
CacheModel::matchWays(std::size_t set, std::uint64_t tag) const
{
    const std::uint64_t* tags = &tags_[set * ways_];
    std::uint64_t match = 0;
    for (std::uint32_t w = 0; w < ways_; ++w)
        match |= static_cast<std::uint64_t>(tags[w] == tag) << w;
    return match;
}

CacheResult
CacheModel::access(Addr addr, bool is_write)
{
    const std::uint64_t line = lineNum(addr);
    const std::uint64_t tag = line / sets_;
    const std::size_t set = static_cast<std::size_t>(line - tag * sets_);
    SetState& st = state_[set];
    const std::size_t base = set * ways_;

    const std::uint64_t hit = matchWays(set, tag) & st.valid;
    if (hit != 0) {
        const std::uint64_t bit = hit & -hit;
        lastUse_[base + std::countr_zero(hit)] = ++useClock_;
        if (is_write)
            st.dirty |= bit;
        ++hits_;
        return {true, 0};
    }

    // Victim: the lowest invalid way, else the first least-recent one.
    ++misses_;
    const std::uint64_t all_ways =
        ways_ == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << ways_) - 1;
    const std::uint64_t invalid = ~st.valid & all_ways;
    std::uint32_t victim = 0;
    if (invalid != 0) {
        victim = static_cast<std::uint32_t>(std::countr_zero(invalid));
    } else {
        const std::uint64_t* stamps = &lastUse_[base];
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (stamps[w] < stamps[victim])
                victim = w;
        }
    }
    const std::uint64_t bit = std::uint64_t(1) << victim;

    CacheResult result{false, 0};
    if (st.valid & bit) {
        ++evictions_;
        if (st.dirty & bit) {
            ++writebacks_;
            result.writebackBytes = lineBytes_;
        }
        dropResident(tags_[base + victim], 1);
    }
    tags_[base + victim] = tag;
    lastUse_[base + victim] = ++useClock_;
    st.valid |= bit;
    st.dirty = is_write ? st.dirty | bit : st.dirty & ~bit;
    addResident(tag);
    return result;
}

bool
CacheModel::contains(Addr addr) const
{
    const std::uint64_t line = lineNum(addr);
    const std::uint64_t tag = line / sets_;
    const std::size_t set = static_cast<std::size_t>(line - tag * sets_);
    return (matchWays(set, tag) & state_[set].valid) != 0;
}

std::uint64_t
CacheModel::invalidatePage(Addr page_base, std::uint64_t page_bytes)
{
    std::uint64_t writeback = 0;
    const std::uint64_t first = lineNum(page_base);
    const std::uint64_t end = first + page_bytes / lineBytes_;
    // Walk the page one tag window at a time; a window with no resident
    // line cannot hold any of the page's lines, so it is skipped whole.
    for (std::uint64_t l = first; l < end;) {
        const std::uint64_t tag = l / sets_;
        const std::uint64_t window_end = std::min(end, (tag + 1) * sets_);
        std::uint64_t resident = residentLines(tag);
        std::uint64_t dropped = 0;
        for (; l < window_end && resident > 0; ++l) {
            const std::size_t set =
                static_cast<std::size_t>(l - tag * sets_);
            SetState& st = state_[set];
            const std::uint64_t hit = matchWays(set, tag) & st.valid;
            if (hit == 0)
                continue;
            if (st.dirty & hit) {
                ++writebacks_;
                writeback += lineBytes_;
            }
            // The stale tag and dirty bit stay, as the snapshot shows.
            st.valid &= ~hit;
            --resident;
            ++dropped;
        }
        if (dropped > 0)
            dropResident(tag, dropped);
        l = window_end;
    }
    return writeback;
}

std::uint64_t
CacheModel::flushAll()
{
    std::uint64_t writeback = 0;
    for (SetState& st : state_) {
        const std::uint64_t dirty = st.valid & st.dirty;
        writebacks_ += static_cast<std::uint64_t>(std::popcount(dirty));
        writeback += static_cast<std::uint64_t>(std::popcount(dirty)) *
                     lineBytes_;
        st = SetState{};
    }
    resetWindows(std::size_t(1) << minWindowBits);
    return writeback;
}

std::size_t
CacheModel::windowSlot(std::uint64_t tag) const
{
    const std::size_t mask = windows_.size() - 1;
    std::size_t slot = windowHome(tag);
    while (windows_[slot].count != 0 && windows_[slot].tag != tag)
        slot = (slot + 1) & mask;
    return slot;
}

std::uint64_t
CacheModel::residentLines(std::uint64_t tag) const
{
    return windows_[windowSlot(tag)].count;
}

void
CacheModel::addResident(std::uint64_t tag)
{
    // Keep the load at or below one half so probe runs stay short.
    if (2 * (windowsUsed_ + 1) > windows_.size()) {
        std::vector<WindowCount> old;
        old.swap(windows_);
        resetWindows(old.size() * 2);
        for (const WindowCount& w : old) {
            if (w.count != 0) {
                windows_[windowSlot(w.tag)] = w;
                ++windowsUsed_;
            }
        }
    }
    WindowCount& w = windows_[windowSlot(tag)];
    if (w.count == 0) {
        w.tag = tag;
        ++windowsUsed_;
    }
    ++w.count;
}

void
CacheModel::dropResident(std::uint64_t tag, std::uint64_t lines)
{
    std::size_t hole = windowSlot(tag);
    gps_assert(windows_[hole].count >= lines,
               "resident-line count underflow for tag ", tag);
    windows_[hole].count -= lines;
    if (windows_[hole].count != 0)
        return;
    --windowsUsed_;
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless their home slot lies cyclically in (hole, next].
    const std::size_t mask = windows_.size() - 1;
    for (std::size_t next = (hole + 1) & mask; windows_[next].count != 0;
         next = (next + 1) & mask) {
        const std::size_t home = windowHome(windows_[next].tag);
        const bool stays = hole <= next ? hole < home && home <= next
                                        : hole < home || home <= next;
        if (stays)
            continue;
        windows_[hole] = windows_[next];
        windows_[next].count = 0;
        hole = next;
    }
}

void
CacheModel::resetWindows(std::size_t slots)
{
    windows_.assign(slots, WindowCount{});
    windowsUsed_ = 0;
    windowShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

void
CacheModel::rebuildWindows()
{
    resetWindows(std::size_t(1) << minWindowBits);
    for (std::size_t set = 0; set < sets_; ++set) {
        for (std::uint64_t valid = state_[set].valid; valid != 0;
             valid &= valid - 1)
            addResident(tags_[set * ways_ + std::countr_zero(valid)]);
    }
}

void
CacheModel::saveState(snapshot::Serializer& out) const
{
    out.section("cache");
    out.u64(tags_.size());
    for (std::size_t set = 0; set < sets_; ++set) {
        const SetState& st = state_[set];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            out.u64(tags_[set * ways_ + w]);
            out.b((st.valid >> w) & 1);
            out.b((st.dirty >> w) & 1);
            out.u64(lastUse_[set * ways_ + w]);
        }
    }
    out.u64(useClock_);
    out.u64(hits_);
    out.u64(misses_);
    out.u64(evictions_);
    out.u64(writebacks_);
}

void
CacheModel::restoreState(snapshot::Deserializer& in)
{
    in.section("cache");
    if (in.u64() != tags_.size())
        throw snapshot::SnapshotError(
            "snapshot cache geometry differs from the configured "
            "cache");
    for (std::size_t set = 0; set < sets_; ++set) {
        SetState& st = state_[set];
        st = SetState{};
        for (std::uint32_t w = 0; w < ways_; ++w) {
            tags_[set * ways_ + w] = in.u64();
            st.valid |= static_cast<std::uint64_t>(in.b()) << w;
            st.dirty |= static_cast<std::uint64_t>(in.b()) << w;
            lastUse_[set * ways_ + w] = in.u64();
        }
    }
    useClock_ = in.u64();
    hits_ = in.u64();
    misses_ = in.u64();
    evictions_ = in.u64();
    writebacks_ = in.u64();
    rebuildWindows();
}

double
CacheModel::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

void
CacheModel::exportStats(StatSet& out) const
{
    out.set(name() + ".hits", static_cast<double>(hits_));
    out.set(name() + ".misses", static_cast<double>(misses_));
    out.set(name() + ".evictions", static_cast<double>(evictions_));
    out.set(name() + ".writebacks", static_cast<double>(writebacks_));
    out.set(name() + ".hit_rate", hitRate());
}

void
CacheModel::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "hits", "events",
                [this] { return static_cast<double>(hits_); });
    reg.counter(p + "misses", "events",
                [this] { return static_cast<double>(misses_); });
    reg.counter(p + "evictions", "events",
                [this] { return static_cast<double>(evictions_); });
    reg.counter(p + "writebacks", "events",
                [this] { return static_cast<double>(writebacks_); });
    reg.gauge(p + "hit_rate", "ratio", [this] { return hitRate(); });
}

void
CacheModel::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    writebacks_ = 0;
}

} // namespace gps
