/**
 * @file
 * Bitmask over GPU ids (up to 256 GPUs), used for subscriber sets,
 * accessed-by hints and mapping bookkeeping.
 *
 * A fixed four-word value type rather than an integer alias: multi-node
 * topologies scale past 64 GPUs, and the mask must stay cheap to copy,
 * compare and iterate on the replay hot path. Small masks (bits < 64)
 * construct and compare against plain integers, so call sites keep the
 * `mask == 0` / `GpuMask m = 0` idiom.
 */

#ifndef GPS_COMMON_GPU_MASK_HH
#define GPS_COMMON_GPU_MASK_HH

#include <bit>
#include <cstdint>
#include <ostream>

#include "common/types.hh"

namespace gps
{

/** Largest GPU count a GpuMask can describe. */
constexpr std::size_t maxGpus = 256;

/** A set of GPUs as a fixed-width bitmask. */
class GpuMask
{
  public:
    /** 64-bit words backing the mask. */
    static constexpr std::size_t words = maxGpus / 64;

    constexpr GpuMask() = default;

    /** Implicit on purpose: `GpuMask m = 0` / `mask == 0` idioms. */
    constexpr GpuMask(std::uint64_t low) : w_{low, 0, 0, 0} {}

    constexpr std::uint64_t word(std::size_t i) const { return w_[i]; }
    constexpr void setWord(std::size_t i, std::uint64_t v) { w_[i] = v; }

    constexpr bool
    any() const
    {
        return (w_[0] | w_[1] | w_[2] | w_[3]) != 0;
    }

    constexpr GpuMask&
    operator&=(const GpuMask& o)
    {
        for (std::size_t i = 0; i < words; ++i)
            w_[i] &= o.w_[i];
        return *this;
    }

    constexpr GpuMask&
    operator|=(const GpuMask& o)
    {
        for (std::size_t i = 0; i < words; ++i)
            w_[i] |= o.w_[i];
        return *this;
    }

    constexpr GpuMask&
    operator^=(const GpuMask& o)
    {
        for (std::size_t i = 0; i < words; ++i)
            w_[i] ^= o.w_[i];
        return *this;
    }

    friend constexpr GpuMask
    operator&(GpuMask a, const GpuMask& b)
    {
        a &= b;
        return a;
    }

    friend constexpr GpuMask
    operator|(GpuMask a, const GpuMask& b)
    {
        a |= b;
        return a;
    }

    friend constexpr GpuMask
    operator^(GpuMask a, const GpuMask& b)
    {
        a ^= b;
        return a;
    }

    friend constexpr GpuMask
    operator~(GpuMask a)
    {
        for (std::size_t i = 0; i < words; ++i)
            a.w_[i] = ~a.w_[i];
        return a;
    }

    friend constexpr bool
    operator==(const GpuMask& a, const GpuMask& b) = default;

    /**
     * Hex rendering without a 0x prefix, matching what the old integer
     * mask printed under `std::hex` (diagnostics embed their own "0x").
     */
    friend std::ostream&
    operator<<(std::ostream& os, const GpuMask& m)
    {
        bool started = false;
        for (std::size_t i = words; i-- > 0;) {
            if (!started) {
                if (m.w_[i] == 0 && i != 0)
                    continue;
                os << std::hex << m.w_[i];
                started = true;
            } else {
                char buf[17];
                for (int nib = 15; nib >= 0; --nib)
                    buf[15 - nib] =
                        "0123456789abcdef"[(m.w_[i] >> (nib * 4)) & 0xf];
                buf[16] = '\0';
                os << buf;
            }
        }
        os << std::dec;
        return os;
    }

  private:
    std::uint64_t w_[words] = {0, 0, 0, 0};
};

constexpr GpuMask
gpuBit(GpuId gpu)
{
    GpuMask m;
    m.setWord(gpu / 64, std::uint64_t(1) << (gpu % 64));
    return m;
}

constexpr bool
maskHas(const GpuMask& mask, GpuId gpu)
{
    return ((mask.word(gpu / 64) >> (gpu % 64)) & 1) != 0;
}

constexpr GpuMask
maskSet(const GpuMask& mask, GpuId gpu)
{
    return mask | gpuBit(gpu);
}

constexpr GpuMask
maskClear(const GpuMask& mask, GpuId gpu)
{
    return mask & ~gpuBit(gpu);
}

/** Number of GPUs in the set. */
constexpr std::size_t
maskCount(const GpuMask& mask)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < GpuMask::words; ++i)
        n += static_cast<std::size_t>(std::popcount(mask.word(i)));
    return n;
}

/** Mask with GPUs [0, n) set. */
constexpr GpuMask
maskAll(std::size_t n)
{
    GpuMask m;
    if (n >= maxGpus)
        return ~m;
    for (std::size_t i = 0; i < GpuMask::words; ++i) {
        if (n >= (i + 1) * 64)
            m.setWord(i, ~std::uint64_t(0));
        else if (n > i * 64)
            m.setWord(i, (std::uint64_t(1) << (n - i * 64)) - 1);
    }
    return m;
}

/** Lowest GPU id in the set; invalidGpu when empty. */
constexpr GpuId
maskFirst(const GpuMask& mask)
{
    for (std::size_t i = 0; i < GpuMask::words; ++i)
        if (mask.word(i) != 0)
            return static_cast<GpuId>(i * 64 +
                                      std::countr_zero(mask.word(i)));
    return invalidGpu;
}

/** Call @p fn(GpuId) for every GPU in the set, ascending. */
template <typename Fn>
void
maskForEach(const GpuMask& mask, Fn&& fn)
{
    for (std::size_t i = 0; i < GpuMask::words; ++i) {
        std::uint64_t bits = mask.word(i);
        while (bits != 0) {
            const GpuId gpu =
                static_cast<GpuId>(i * 64 + std::countr_zero(bits));
            fn(gpu);
            bits &= bits - 1;
        }
    }
}

/** Snapshot transfer of the mask as its four words, low to high. */
template <typename StateIO>
void
maskState(StateIO& io, GpuMask& mask)
{
    for (std::size_t i = 0; i < GpuMask::words; ++i) {
        std::uint64_t word = mask.word(i);
        io.u64(word);
        mask.setWord(i, word);
    }
}

} // namespace gps

#endif // GPS_COMMON_GPU_MASK_HH
