/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Workload generators must be reproducible run-to-run and independent of
 * the C++ standard library's unspecified distributions, so we carry our own
 * small engine and distributions.
 */

#ifndef GPS_COMMON_RNG_HH
#define GPS_COMMON_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gps
{

/** xoshiro256** by Blackman & Vigna; public-domain algorithm. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // splitmix64 seeding to fill the state from a single word.
        std::uint64_t x = seed;
        for (auto& word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // for workload generation purposes.
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** The four raw state words (snapshot transfer). */
    template <typename StateIO>
    void
    transferState(StateIO& io)
    {
        for (std::uint64_t& word : state_)
            io.u64(word);
    }

    /**
     * Skewed integer in [0, n): direct inversion of the bounded-Pareto
     * law P(X < x) = (x/n)^(1-s) for @p s in (0, 1), i.e.
     * v = floor(n * u^(1/(1-s))). Low ids are drawn heavily (the
     * graph generator relabels hubs there); the realized mass of the
     * first tenth is 0.1^(1-s). One uniform draw per call. Prefer a
     * ZipfTable for per-edge sampling loops — this convenience method
     * pays a std::pow on every call; the table reproduces it draw for
     * draw without one.
     */
    std::uint64_t
    zipf(std::uint64_t n, double s)
    {
        // Direct inversion: v = floor(n * u^(1/(1-s))) clipped to range.
        double u = uniform();
        double x = std::pow(u, 1.0 / (1.0 - s));
        auto v = static_cast<std::uint64_t>(x * static_cast<double>(n));
        return v >= n ? n - 1 : v;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Precomputed inverse-CDF sampler for the power-law distribution the
 * graph generator uses for hub targets.
 *
 * Distribution realized (identical to Rng::zipf): a uniform draw
 * u in [0,1) maps to v = floor(n * u^(1/(1-s))), clipped to [0, n),
 * i.e. the discretized bounded Pareto approximation of a Zipf law with
 * exponent s: P(X < x) = (x/n)^(1-s). Low ids ("hubs", after the usual
 * degree-sorted relabeling) receive the heavy tail: for s = 0.75 the
 * bottom tenth of the id space absorbs ~56% of the draws.
 *
 * Why a table: the direct inversion costs a std::pow per draw, which
 * dominates the remote-edge path of graph generation. The table stores
 * the n+1 CDF thresholds T[v] = (v/n)^(1-s) — v is the answer for
 * u in [T[v], T[v+1]) — plus a uniformly-spaced guide index over
 * u-space, so a draw is one guide lookup and a short binary search over
 * a handful of adjacent thresholds.
 *
 * Exactness: sample(u) returns bit-identical results to Rng::zipf for
 * every u. Draws that land within a guard band (1e-9) of a stored
 * threshold — where the table's inverted rounding could disagree with
 * the forward pow by an ulp — fall back to the forward formula, which
 * is the definition. Outside the band the two cannot disagree: the
 * stored thresholds and the forward map's decision boundaries coincide
 * to ~1e-13 absolute.
 *
 * Degenerate exponents (s >= 1, or values whose table would be
 * non-finite) and oversized domains skip the table and use the forward
 * formula per draw, preserving Rng::zipf behavior exactly.
 */
class ZipfTable
{
  public:
    ZipfTable(std::uint64_t n, double s)
        : n_(n), invExp_(1.0 / (1.0 - s))
    {
        const double cdf_exp = 1.0 - s;
        if (n == 0 || n > maxTableEntries || !(cdf_exp > 0.0) ||
            !std::isfinite(invExp_))
            return; // degenerate or huge: per-draw forward formula
        thresh_.resize(static_cast<std::size_t>(n) + 1);
        const double dn = static_cast<double>(n);
        for (std::uint64_t v = 0; v <= n; ++v)
            thresh_[v] = std::pow(static_cast<double>(v) / dn, cdf_exp);
        // Guide: bucket k covers u in [k/K, (k+1)/K); guide_[k] is the
        // sample value at the bucket's left edge, so the answer for any
        // u in bucket k lies in [guide_[k], guide_[k+1]].
        guide_.resize(guideBuckets + 1);
        std::uint64_t v = 0;
        for (std::size_t k = 0; k <= guideBuckets; ++k) {
            const double edge = static_cast<double>(k) /
                                static_cast<double>(guideBuckets);
            while (v + 1 < n && thresh_[v + 1] <= edge)
                ++v;
            guide_[k] = v;
        }
    }

    std::uint64_t n() const { return n_; }
    bool hasTable() const { return !thresh_.empty(); }

    /** Map one uniform draw u in [0,1) exactly as Rng::zipf does. */
    std::uint64_t
    sample(double u) const
    {
        if (thresh_.empty())
            return forward(u);
        std::size_t k = static_cast<std::size_t>(
            u * static_cast<double>(guideBuckets));
        if (k >= guideBuckets)
            k = guideBuckets - 1;
        std::uint64_t lo = guide_[k];
        std::uint64_t hi = guide_[k + 1];
        // Largest v with thresh_[v] <= u (thresh_[0] = 0 <= u always).
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo + 1) / 2;
            if (thresh_[mid] <= u)
                lo = mid;
            else
                hi = mid - 1;
        }
        // Guard band: near a threshold the table's inverted rounding
        // could differ from the forward pow by an ulp; defer to the
        // forward formula there (it is the definition).
        if (u - thresh_[lo] < boundaryEps ||
            thresh_[lo + 1] - u < boundaryEps)
            return forward(u);
        return lo;
    }

    /** Draw from @p rng: consumes exactly one uniform, like Rng::zipf. */
    std::uint64_t operator()(Rng& rng) const { return sample(rng.uniform()); }

  private:
    /** The defining forward map (verbatim Rng::zipf inversion). */
    std::uint64_t
    forward(double u) const
    {
        const double x = std::pow(u, invExp_);
        const auto v =
            static_cast<std::uint64_t>(x * static_cast<double>(n_));
        return v >= n_ ? n_ - 1 : v;
    }

    static constexpr std::size_t guideBuckets = 1 << 14;
    static constexpr double boundaryEps = 1e-9;
    /** Above this the table (8 B/vertex) stops paying for itself. */
    static constexpr std::uint64_t maxTableEntries = 1ULL << 22;

    std::uint64_t n_;
    double invExp_;
    std::vector<double> thresh_; ///< T[v] = (v/n)^(1-s), size n+1
    std::vector<std::uint64_t> guide_;
};

} // namespace gps

#endif // GPS_COMMON_RNG_HH
