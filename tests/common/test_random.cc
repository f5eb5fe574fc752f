/**
 * @file
 * Unit tests for the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.hh"

namespace cmpqos
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(99);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntWithinBound)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(7), 7u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(6);
    std::vector<int> seen(5, 0);
    for (int i = 0; i < 2000; ++i)
        ++seen[rng.uniformInt(5)];
    for (int count : seen)
        EXPECT_GT(count, 200);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(8);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.uniformRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, GeometricMean)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    const double p = 0.1;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of geometric (failures before success) = (1-p)/p = 9.
    EXPECT_NEAR(sum / n, 9.0, 0.5);
}

TEST(Rng, GeometricPOneIsZero)
{
    Rng rng(14);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(17);
    std::vector<double> w{1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.discrete(w)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
    EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

/**
 * Rng::discrete as it was before callers could pass the total in: it
 * re-sums the weights on every draw. Kept as the reference.
 */
std::size_t
resummingDiscrete(Rng &rng, const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double target = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

TEST(Rng, DiscreteWithTotalMatchesResumming)
{
    Rng gen(23);
    Rng with_total(29), summing(29), reference(29);
    std::vector<double> w;
    double total = 0.0;
    for (int i = 0; i < 1'000'000; ++i) {
        if (i % 1000 == 0) {
            // Fresh weights over several magnitudes, some of them zero.
            w.assign(1 + gen.uniformInt(6), 0.0);
            for (double &x : w)
                x = gen.bernoulli(0.15)
                        ? 0.0
                        : gen.uniform() *
                              std::pow(10.0, gen.uniformRange(-3, 3));
            w[gen.uniformInt(w.size())] += 0.5;
            total = 0.0;
            for (double x : w)
                total += x;
        }
        const std::size_t expect = resummingDiscrete(reference, w);
        ASSERT_EQ(with_total.discrete(w, total), expect) << "draw " << i;
        ASSERT_EQ(summing.discrete(w), expect) << "draw " << i;
    }
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ForkIndependentButDeterministic)
{
    Rng a(42);
    Rng fork1 = a.fork();
    Rng b(42);
    Rng fork2 = b.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(fork1.next(), fork2.next());
}

} // namespace
} // namespace cmpqos
