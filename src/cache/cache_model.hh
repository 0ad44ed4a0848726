/**
 * @file
 * Generic set-associative write-back cache model with true-LRU
 * replacement (up to 64 ways), used for each GPU's L2. The
 * aggregate-capacity effect the paper reports for EQWP (L2 hit rate
 * rising from 55% to 68% at 4 GPUs) emerges from this model when the
 * per-GPU working set shrinks.
 */

#ifndef GPS_CACHE_CACHE_MODEL_HH
#define GPS_CACHE_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Result of one cache access. */
struct CacheResult
{
    bool hit = false;

    /** Bytes written back to DRAM due to a dirty eviction (0 or line). */
    std::uint32_t writebackBytes = 0;
};

/** Set-associative write-back cache (tag-only functional+stats model). */
class CacheModel : public SimObject
{
  public:
    /**
     * @param name component name
     * @param capacity_bytes total data capacity
     * @param line_bytes cache line size (Table 1: 128 B)
     * @param ways associativity, 1..64
     */
    CacheModel(std::string name, std::uint64_t capacity_bytes,
               std::uint32_t line_bytes, std::uint32_t ways);

    /**
     * Access the line containing @p addr, allocating on miss.
     * @param addr byte address
     * @param is_write marks the line dirty
     */
    CacheResult access(Addr addr, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Invalidate every line of the page containing @p addr.
     * @return bytes of dirty data dropped/written back. */
    std::uint64_t invalidatePage(Addr page_base, std::uint64_t page_bytes);

    /** Drop all lines; dirty lines count as writebacks.
     * @return writeback bytes. */
    std::uint64_t flushAll();

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint64_t capacityBytes() const { return capacityBytes_; }

    /** Tag windows (the lines sharing one tag) holding a valid line. */
    std::size_t residentWindows() const { return windowsUsed_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double hitRate() const;

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;
    void resetStats() override;

    /**
     * Serialize every line (tag, valid, dirty, last use; invalidated
     * lines keep their stale tag and dirty bit), the LRU clock, and the
     * counters.
     */
    void saveState(snapshot::Serializer& out) const;

    /** Counterpart of saveState; geometry must match this instance. */
    void restoreState(snapshot::Deserializer& in);

  private:
    /** Valid and dirty way masks of one set (bit w = way w). */
    struct SetState
    {
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
    };

    /** Valid lines of one tag window; an empty slot has count 0. */
    struct WindowCount
    {
        std::uint64_t tag = 0;
        std::uint64_t count = 0;
    };

    std::uint64_t lineNum(Addr addr) const { return addr / lineBytes_; }

    /** Ways of @p set whose stored tag equals @p tag (valid or not). */
    std::uint64_t matchWays(std::size_t set, std::uint64_t tag) const;

    /** First slot @p tag's probe run visits. */
    std::size_t
    windowHome(std::uint64_t tag) const
    {
        return static_cast<std::size_t>((tag * 0x9e3779b97f4a7c15ULL) >>
                                        windowShift_);
    }

    /** Slot holding @p tag's count, or the empty slot ending its probe. */
    std::size_t windowSlot(std::uint64_t tag) const;
    std::uint64_t residentLines(std::uint64_t tag) const;
    void addResident(std::uint64_t tag);
    void dropResident(std::uint64_t tag, std::uint64_t lines);
    void resetWindows(std::size_t slots);
    void rebuildWindows();

    std::uint64_t capacityBytes_;
    std::uint32_t lineBytes_;
    std::uint32_t ways_;
    std::size_t sets_;

    /** Per line, set-major (set * ways + way): stored tag, LRU stamp. */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<SetState> state_;
    std::uint64_t useClock_ = 0;

    /**
     * Valid-line count per tag window (the sets_ consecutive lines that
     * share one tag), in a flat linear-probing table that holds only
     * windows with resident lines. invalidatePage skips every window
     * the page overlaps whose count is 0.
     */
    std::vector<WindowCount> windows_;
    std::size_t windowsUsed_ = 0;
    unsigned windowShift_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace gps

#endif // GPS_CACHE_CACHE_MODEL_HH
