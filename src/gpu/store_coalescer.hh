/**
 * @file
 * SM-level store coalescer.
 *
 * Models the intra-SM write combining that merges spatially adjacent
 * stores from a warp into a single cache-line transaction before anything
 * reaches the GPS remote write queue. This is why the paper measures a 0%
 * *remote write queue* hit rate for Jacobi: all of its spatial locality is
 * captured here (Section 7.4).
 */

#ifndef GPS_GPU_STORE_COALESCER_HH
#define GPS_GPU_STORE_COALESCER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/**
 * Small FIFO of recently written cache lines; a store whose line is still
 * resident merges and produces no downstream transaction.
 */
class StoreCoalescer : public SimObject
{
  public:
    /**
     * @param name component name
     * @param depth number of line slots (GpuConfig::smCoalescerDepth)
     * @param line_bytes cache line size
     */
    StoreCoalescer(std::string name, std::uint32_t depth,
                   std::uint32_t line_bytes);

    /**
     * Offer a store to the coalescer.
     * @param addr store address
     * @return true if merged into a resident line (absorbed), false if it
     *         starts a new line transaction.
     */
    bool absorb(Addr addr);

    /** Atomics are never coalesced; they flush nothing but bypass. */
    void reset();

    std::uint64_t absorbed() const { return absorbed_; }
    std::uint64_t forwarded() const { return forwarded_; }

    /** The resident lines and the counters; depth must match. */
    void
    transferState(snapshot::StateIO& io)
    {
        io.section("coalescer");
        io.expect(lines_.size(), "snapshot coalescer depth differs from "
                                 "the configured coalescer");
        for (std::uint64_t& line : lines_)
            io.u64(line);
        io.u32(head_);
        io.u32(valid_);
        io.u64(absorbed_);
        io.u64(forwarded_);
    }

  private:
    void declareStats(StatVisitor& v) const override;

    std::uint32_t depth_;
    std::uint32_t lineBytes_;
    std::vector<std::uint64_t> lines_; ///< circular buffer of line numbers
    std::uint32_t head_ = 0;
    std::uint32_t valid_ = 0;

    std::uint64_t absorbed_ = 0;
    std::uint64_t forwarded_ = 0;
};

} // namespace gps

#endif // GPS_GPU_STORE_COALESCER_HH
