/**
 * @file
 * Unit tests for stack-distance profiles and their analytic
 * miss-rate curves.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace cmpqos
{
namespace
{

using PC = ProfileComponent;

TEST(ProfileComponent, ColdAlwaysMisses)
{
    const PC c = PC::cold(1.0);
    EXPECT_DOUBLE_EQ(c.missProbability(0), 1.0);
    EXPECT_DOUBLE_EQ(c.missProbability(1'000'000), 1.0);
}

TEST(ProfileComponent, UniformMissProbability)
{
    const PC c = PC::uniform(1.0, 100, 199);
    EXPECT_DOUBLE_EQ(c.missProbability(99), 1.0);
    EXPECT_DOUBLE_EQ(c.missProbability(199), 0.0);
    EXPECT_DOUBLE_EQ(c.missProbability(1000), 0.0);
    // Capacity 149: distances 150..199 miss = 50/100.
    EXPECT_NEAR(c.missProbability(149), 0.5, 1e-9);
}

TEST(ProfileComponent, GeometricMissProbabilityDecays)
{
    const PC c = PC::geometric(1.0, 100.0);
    const double m1 = c.missProbability(10);
    const double m2 = c.missProbability(100);
    const double m3 = c.missProbability(1000);
    EXPECT_GT(m1, m2);
    EXPECT_GT(m2, m3);
    EXPECT_LT(m3, 0.01);
}

TEST(StackDistanceProfile, ExpectedMissRateMixture)
{
    StackDistanceProfile p({PC::uniform(0.5, 1, 100), PC::cold(0.5)});
    // Above 100 blocks, only the cold half misses.
    EXPECT_NEAR(p.expectedMissRate(100), 0.5, 1e-9);
    EXPECT_NEAR(p.expectedMissRate(10000), 0.5, 1e-9);
    // With zero capacity everything misses.
    EXPECT_NEAR(p.expectedMissRate(0), 1.0, 1e-9);
}

TEST(StackDistanceProfile, MissRateMonotoneInCapacity)
{
    StackDistanceProfile p({PC::uniform(0.4, 1, 5000),
                            PC::geometric(0.3, 800.0), PC::cold(0.3)});
    double prev = 1.1;
    for (std::uint64_t cap = 0; cap <= 8000; cap += 250) {
        const double m = p.expectedMissRate(cap);
        EXPECT_LE(m, prev + 1e-12) << "capacity " << cap;
        prev = m;
    }
}

TEST(StackDistanceProfile, SampleMatchesComponents)
{
    StackDistanceProfile p({PC::uniform(0.7, 10, 20), PC::cold(0.3)});
    Rng rng(77);
    int cold = 0, finite = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto d = p.sample(rng);
        if (!d) {
            ++cold;
        } else {
            ++finite;
            EXPECT_GE(*d, 10u);
            EXPECT_LE(*d, 20u);
        }
    }
    EXPECT_NEAR(cold / 10000.0, 0.3, 0.02);
}

TEST(StackDistanceProfile, SampledDistancesRealizeMissRate)
{
    // Empirical check: fraction of sampled distances above capacity
    // approaches the analytic expectedMissRate.
    StackDistanceProfile p({PC::uniform(0.5, 1, 1000),
                            PC::uniform(0.3, 2000, 6000), PC::cold(0.2)});
    Rng rng(123);
    const std::uint64_t capacity = 4000;
    int miss = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const auto d = p.sample(rng);
        if (!d || *d > capacity)
            ++miss;
    }
    EXPECT_NEAR(miss / static_cast<double>(n),
                p.expectedMissRate(capacity), 0.01);
}

TEST(StackDistanceProfile, MaxFiniteDistance)
{
    StackDistanceProfile p({PC::uniform(0.5, 1, 123), PC::cold(0.5)});
    EXPECT_EQ(p.maxFiniteDistance(), 123u);
}

/** @p profile's weights and their total, summed front to back. */
double
weightsOf(const StackDistanceProfile &profile, std::vector<double> &w)
{
    double total = 0.0;
    w.clear();
    for (const auto &c : profile.components()) {
        w.push_back(c.weight);
        total += c.weight;
    }
    return total;
}

/**
 * Check @p profile's component pick against Rng::discrete over its
 * weights at each draw where discrete's index steps up (found here by
 * a bisection of the test's own), one below it and one above it.
 */
void
expectPickMatchesAtSteps(const StackDistanceProfile &profile,
                         const std::string &what)
{
    std::vector<double> w;
    const double total = weightsOf(profile, w);
    for (std::size_t i = 1; i < w.size(); ++i) {
        std::uint64_t lo = 0, hi = Rng::drawSpan;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (Rng::discreteIndex(mid, w, total) < i)
                lo = mid + 1;
            else
                hi = mid;
        }
        for (const std::uint64_t bits : {lo - 1, lo, lo + 1}) {
            if (bits >= Rng::drawSpan) // lo - 1 wraps when lo is 0
                continue;
            ASSERT_EQ(profile.component(bits),
                      Rng::discreteIndex(bits, w, total))
                << what << ": step to " << i << ", draw " << bits;
        }
    }
}

TEST(StackDistanceProfile, ComponentPickMatchesDiscreteOnRandomWeights)
{
    // The weight sets of Rng.DiscreteWithTotalMatchesResumming, one to
    // six weights over six magnitudes with some of them zero, fresh
    // every 1000 of 10^6 consecutive draws.
    Rng gen(23);
    Rng by_discrete(29), by_bounds(29);
    std::vector<double> w;
    double total = 0.0;
    std::vector<ProfileComponent> comps;
    StackDistanceProfile profile({PC::cold(1.0)});
    for (int i = 0; i < 1'000'000; ++i) {
        if (i % 1000 == 0) {
            w.assign(1 + gen.uniformInt(6), 0.0);
            for (double &x : w)
                x = gen.bernoulli(0.15)
                        ? 0.0
                        : gen.uniform() *
                              std::pow(10.0, gen.uniformRange(-3, 3));
            w[gen.uniformInt(w.size())] += 0.5;
            comps.clear();
            total = 0.0;
            for (double x : w) {
                comps.push_back(PC::cold(x));
                total += x;
            }
            profile = StackDistanceProfile(comps);
            expectPickMatchesAtSteps(profile, "draw " + std::to_string(i));
        }
        ASSERT_EQ(profile.component(by_bounds.draw53()),
                  by_discrete.discrete(w, total))
            << "draw " << i;
    }
}

TEST(StackDistanceProfile, ComponentPickKeepsRoundingAtTheTop)
{
    // At the largest draw the running target stays at or above zero
    // after the last weight, so discrete() falls back to the last
    // index, whose weight is zero; the pick must do the same.
    const StackDistanceProfile p(
        {PC::cold(0.201), PC::cold(0.53), PC::cold(0.0)});
    std::vector<double> w;
    const double total = weightsOf(p, w);
    EXPECT_EQ(Rng::discreteIndex(Rng::drawSpan - 1, w, total), 2u);
    EXPECT_EQ(p.component(Rng::drawSpan - 1), 2u);
    EXPECT_EQ(p.component(0), 0u);
    expectPickMatchesAtSteps(p, "trailing zero");
}

TEST(StackDistanceProfile, ComponentPickMatchesDiscreteOnSuiteProfiles)
{
    std::vector<double> w;
    for (const BenchmarkProfile &b : BenchmarkRegistry::all()) {
        for (const bool full : {false, true}) {
            const StackDistanceProfile profile =
                full ? buildFullStreamProfile(b) : b.l2Profile;
            const std::string what = b.name + (full ? " Full" : " L2");
            expectPickMatchesAtSteps(profile, what);
            const double total = weightsOf(profile, w);
            Rng by_discrete(41), by_bounds(41);
            for (int i = 0; i < 1'000'000; ++i)
                ASSERT_EQ(profile.component(by_bounds.draw53()),
                          by_discrete.discrete(w, total))
                    << what << ": draw " << i;
        }
    }
}

} // namespace
} // namespace cmpqos
