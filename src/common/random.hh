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
    std::uint64_t next();

    /** @return a uniform double in [0, 1). */
    double uniform();

    /** @return a uniform integer in [0, bound) — bound must be > 0. */
    std::uint64_t uniformInt(std::uint64_t bound);

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
    std::size_t discrete(const std::vector<double> &weights, double total);

    /** @return true with probability @p p. */
    bool bernoulli(double p);

    /** Fork an independent stream, deterministic in this stream. */
    Rng fork();

  private:
    std::uint64_t s_[4];
};

} // namespace cmpqos

#endif // CMPQOS_COMMON_RANDOM_HH
