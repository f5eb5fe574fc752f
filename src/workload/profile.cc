#include "profile.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace cmpqos
{

double
ProfileComponent::missProbability(std::uint64_t capacity_blocks) const
{
    switch (kind) {
      case Kind::Cold:
        return 1.0;
      case Kind::Uniform: {
        if (capacity_blocks >= hi)
            return 0.0;
        if (capacity_blocks < lo)
            return 1.0;
        const double span = static_cast<double>(hi - lo + 1);
        return static_cast<double>(hi - capacity_blocks) / span;
      }
      case Kind::Geometric: {
        // d = 1 + G where G geometric with mean (mean - 1);
        // P(d > C) = P(G > C - 1) = (1 - p)^(C), p = 1 / mean.
        if (mean <= 1.0)
            return capacity_blocks >= 1 ? 0.0 : 1.0;
        const double p = 1.0 / mean;
        return std::exp(static_cast<double>(capacity_blocks) *
                        std::log1p(-p));
      }
    }
    return 1.0;
}

namespace
{

/** P(Poisson(lambda) >= w). */
double
poissonTail(double lambda, unsigned w)
{
    if (lambda <= 0.0)
        return 0.0;
    double term = std::exp(-lambda); // k = 0
    double cdf = term;
    for (unsigned k = 1; k < w; ++k) {
        term *= lambda / static_cast<double>(k);
        cdf += term;
    }
    return cdf >= 1.0 ? 0.0 : 1.0 - cdf;
}

} // namespace

double
ProfileComponent::missProbabilitySetAssoc(unsigned ways,
                                          std::uint64_t sets) const
{
    cmpqos_assert(ways >= 1 && sets >= 1, "bad geometry");
    const double s = static_cast<double>(sets);
    switch (kind) {
      case Kind::Cold:
        return 1.0;
      case Kind::Uniform: {
        // Average the Poisson tail over the distance window.
        constexpr int samples = 33;
        double acc = 0.0;
        for (int i = 0; i < samples; ++i) {
            const double d =
                static_cast<double>(lo) +
                (static_cast<double>(hi) - static_cast<double>(lo)) *
                    (static_cast<double>(i) + 0.5) / samples;
            acc += poissonTail(d / s, ways);
        }
        return acc / samples;
      }
      case Kind::Geometric: {
        // Average over quantiles of the geometric distance.
        if (mean <= 1.0)
            return 0.0;
        constexpr int samples = 33;
        const double p = 1.0 / mean;
        double acc = 0.0;
        for (int i = 0; i < samples; ++i) {
            const double q = (static_cast<double>(i) + 0.5) / samples;
            const double d = 1.0 + std::log1p(-q) / std::log1p(-p);
            acc += poissonTail(d / s, ways);
        }
        return acc / samples;
      }
    }
    return 1.0;
}

StackDistanceProfile::StackDistanceProfile(
    std::vector<ProfileComponent> components)
    : components_(std::move(components))
{
    cmpqos_assert(!components_.empty(), "profile needs components");
    weights_.reserve(components_.size());
    uniformSpans_.resize(components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
        const ProfileComponent &c = components_[i];
        cmpqos_assert(c.weight >= 0.0, "negative component weight");
        if (c.kind == ProfileComponent::Kind::Uniform) {
            cmpqos_assert(c.lo >= 1 && c.lo <= c.hi,
                          "bad uniform bounds [%llu, %llu]",
                          static_cast<unsigned long long>(c.lo),
                          static_cast<unsigned long long>(c.hi));
            const std::uint64_t span = c.hi - c.lo + 1;
            uniformSpans_[i] = {span, -span % span};
        }
        weights_.push_back(c.weight);
        totalWeight_ += c.weight;
    }
    cmpqos_assert(totalWeight_ > 0.0, "profile weights sum to zero");
    // The least draw whose index reaches i; discreteIndex() is monotone.
    for (std::size_t i = 1; i < components_.size(); ++i) {
        std::uint64_t lo = 0, hi = Rng::drawSpan;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (Rng::discreteIndex(mid, weights_, totalWeight_) >= i)
                hi = mid;
            else
                lo = mid + 1;
        }
        componentBounds_.push_back(lo);
    }
}

double
StackDistanceProfile::expectedMissRate(std::uint64_t capacity_blocks) const
{
    double miss = 0.0;
    for (std::size_t i = 0; i < components_.size(); ++i) {
        miss += weights_[i] / totalWeight_ *
                components_[i].missProbability(capacity_blocks);
    }
    return miss;
}

double
StackDistanceProfile::expectedMissRateSetAssoc(unsigned ways,
                                               std::uint64_t sets) const
{
    double miss = 0.0;
    for (std::size_t i = 0; i < components_.size(); ++i) {
        miss += weights_[i] / totalWeight_ *
                components_[i].missProbabilitySetAssoc(ways, sets);
    }
    return miss;
}

std::uint64_t
StackDistanceProfile::maxFiniteDistance() const
{
    std::uint64_t max_d = 0;
    for (const auto &c : components_) {
        if (c.kind == ProfileComponent::Kind::Uniform)
            max_d = std::max(max_d, c.hi);
        else if (c.kind == ProfileComponent::Kind::Geometric)
            max_d = std::max(
                max_d, static_cast<std::uint64_t>(c.mean * 8.0));
    }
    return max_d;
}

} // namespace cmpqos
