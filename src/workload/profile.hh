/**
 * @file
 * Parametric stack-distance distributions that define a synthetic
 * benchmark's locality, and the analytic miss-rate curve they imply.
 */

#ifndef CMPQOS_WORKLOAD_PROFILE_HH
#define CMPQOS_WORKLOAD_PROFILE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"

namespace cmpqos
{

/**
 * One component of a stack-distance mixture.
 */
struct ProfileComponent
{
    enum class Kind
    {
        /** d ~ Uniform[lo, hi]. */
        Uniform,
        /** d = 1 + Geometric with the given mean (heavy near the top). */
        Geometric,
        /** Always a cold / streaming access (infinite distance). */
        Cold,
    };

    Kind kind = Kind::Cold;
    /** Mixture weight (unnormalised). */
    double weight = 1.0;
    /** Uniform bounds (blocks). */
    std::uint64_t lo = 1;
    std::uint64_t hi = 1;
    /** Geometric mean distance (blocks). */
    double mean = 1.0;

    static ProfileComponent
    uniform(double weight, std::uint64_t lo, std::uint64_t hi)
    {
        ProfileComponent c;
        c.kind = Kind::Uniform;
        c.weight = weight;
        c.lo = lo;
        c.hi = hi;
        return c;
    }

    static ProfileComponent
    geometric(double weight, double mean)
    {
        ProfileComponent c;
        c.kind = Kind::Geometric;
        c.weight = weight;
        c.mean = mean;
        return c;
    }

    static ProfileComponent
    cold(double weight)
    {
        ProfileComponent c;
        c.kind = Kind::Cold;
        c.weight = weight;
        return c;
    }

    /** P(d > capacity) for this component alone (fully-associative). */
    double missProbability(std::uint64_t capacity_blocks) const;

    /**
     * Miss probability of this component on a W-way, S-set LRU cache
     * (or partition). A block reused at stack distance d misses when
     * >= W of the d distinct intervening blocks land in its set —
     * approximately a Poisson(d/S) tail — so set-associative caches
     * miss noticeably earlier than the fully-associative capacity
     * W*S suggests when the fit is tight.
     */
    double missProbabilitySetAssoc(unsigned ways,
                                   std::uint64_t sets) const;
};

/**
 * A mixture of stack-distance components; fully characterises the
 * locality of one synthetic benchmark's (post-L1) access stream.
 */
class StackDistanceProfile
{
  public:
    StackDistanceProfile() = default;
    explicit StackDistanceProfile(std::vector<ProfileComponent> components);

    /**
     * Sample one stack distance. std::nullopt means a cold access
     * (touch a new block).
     */
    std::optional<std::uint64_t>
    sample(Rng &rng) const
    {
        const std::size_t idx = component(rng.draw53());
        const ProfileComponent &c = components_[idx];
        switch (c.kind) {
          case ProfileComponent::Kind::Cold:
            return std::nullopt;
          case ProfileComponent::Kind::Uniform: {
            // Rng::uniformRange(lo, hi) with the span's rejection
            // threshold kept from construction.
            const UniformSpan &u = uniformSpans_[idx];
            return c.lo + rng.uniformBelow(u.span, u.threshold);
          }
          case ProfileComponent::Kind::Geometric:
            return 1 + rng.geometric(1.0 / std::max(c.mean, 1.0));
        }
        return std::nullopt;
    }

    /** The component Rng::discrete() picks at draw53() @p bits. */
    std::size_t
    component(std::uint64_t bits) const
    {
        std::size_t idx = 0;
        for (const std::uint64_t bound : componentBounds_)
            idx += bits >= bound ? 1 : 0;
        return idx;
    }

    /**
     * Analytic miss rate of this stream on a fully-associative LRU
     * cache of @p capacity_blocks blocks — the target the cache
     * simulation should approach (used by calibration tests).
     */
    double expectedMissRate(std::uint64_t capacity_blocks) const;

    /**
     * Analytic miss rate on a W-way, S-set LRU partition (the model
     * the simulated partitioned L2 realises; see
     * ProfileComponent::missProbabilitySetAssoc).
     */
    double expectedMissRateSetAssoc(unsigned ways,
                                    std::uint64_t sets) const;

    const std::vector<ProfileComponent> &components() const
    {
        return components_;
    }

    bool empty() const { return components_.empty(); }

    /** Largest finite distance any component can produce. */
    std::uint64_t maxFiniteDistance() const;

  private:
    /** A Uniform component's hi - lo + 1 and -span % span. */
    struct UniformSpan
    {
        std::uint64_t span = 0;
        std::uint64_t threshold = 0;
    };

    std::vector<ProfileComponent> components_;
    std::vector<double> weights_;
    /** Sum of weights_, front to back as Rng::discrete() sums them. */
    double totalWeight_ = 0.0;
    /** One per component; zero for all but Uniform ones. */
    std::vector<UniformSpan> uniformSpans_;
    /** Per later component, the least draw53() picking it or a later one. */
    std::vector<std::uint64_t> componentBounds_;
};

} // namespace cmpqos

#endif // CMPQOS_WORKLOAD_PROFILE_HH
