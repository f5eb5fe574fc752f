/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic components (synthetic access generators, Poisson job
 * arrivals, pseudo-random deadline assignment) draw from explicitly
 * seeded Rng instances so that every experiment is reproducible and
 * run-to-run variation can be studied by varying seeds (Section 4.1's
 * global-vs-per-set partitioning stability comparison depends on this).
 *
 * The core generator is xoshiro256** (Blackman & Vigna), seeded via
 * SplitMix64.
 */

#ifndef CMPQOS_COMMON_RANDOM_HH
#define CMPQOS_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

#include "logging.hh"

namespace cmpqos
{

/**
 * A small, fast, deterministic PRNG (xoshiro256**).
 */
class Rng
{
  public:
    /** Construct with a 64-bit seed, expanded through SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** One past the largest draw53(): 2^53. */
    static constexpr std::uint64_t drawSpan = std::uint64_t{1} << 53;

    /** @return the 53 random bits that uniform() scales to [0, 1). */
    std::uint64_t draw53() { return next() >> 11; }

    /** @return a uniform double in [0, 1). */
    double uniform() { return static_cast<double>(draw53()) * 0x1.0p-53; }

    /** @return a uniform integer in [0, bound) — bound must be > 0. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        cmpqos_assert(bound > 0, "uniformInt bound must be positive");
        return uniformBelow(bound, -bound % bound);
    }

    /**
     * uniformInt() for callers that keep the bound's rejection
     * @p threshold, -bound % bound: the same draw for the same state,
     * with one division instead of two.
     */
    std::uint64_t
    uniformBelow(std::uint64_t bound, std::uint64_t threshold)
    {
        // Rejection sampling to remove modulo bias.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi);

    /**
     * @return an exponentially distributed sample with the given mean
     * (used for Poisson inter-arrival times, Section 6).
     */
    double exponential(double mean);

    /**
     * @return a geometrically distributed integer >= 0 with success
     * probability @p p in (0, 1].
     */
    std::uint64_t geometric(double p);

    /**
     * Sample an index from a discrete distribution given by
     * (unnormalised, non-negative) weights. Weights must not all be 0.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /**
     * discrete() for callers that keep the weights' @p total, summed
     * front to back as discrete() sums it: the same draw for the same
     * state, without re-summing on every call.
     */
    std::size_t
    discrete(const std::vector<double> &weights, double total)
    {
        cmpqos_assert(total > 0.0, "discrete weights must not all be zero");
        return discreteIndex(draw53(), weights, total);
    }

    /**
     * discrete()'s index at draw53() @p bits, scaled as uniform() scales
     * it. It never decreases as @p bits grows: each rounding step is
     * monotone (DESIGN.md §6).
     */
    static std::size_t
    discreteIndex(std::uint64_t bits, const std::vector<double> &weights,
                  double total)
    {
        double target = static_cast<double>(bits) * 0x1.0p-53 * total;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            target -= weights[i];
            if (target < 0.0)
                return i;
        }
        return weights.size() - 1;
    }

    /** @return true with probability @p p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** The draw53() below which bernoulli(@p p) holds (0 for NaN). */
    static std::uint64_t bernoulliBound(double p);

    /** Fork an independent stream, deterministic in this stream. */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace cmpqos

#endif // CMPQOS_COMMON_RANDOM_HH
