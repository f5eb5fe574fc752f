/**
 * @file
 * Unit tests for the synthetic access generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "workload/generator.hh"

namespace cmpqos
{
namespace
{

TEST(AccessGenerator, EmitsAtConfiguredRate)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    AccessGenerator gen(b, 1, 0, TraceMode::L2Stream);
    std::uint64_t count = 0;
    gen.run(1'000'000, [&](Addr, bool) { ++count; });
    EXPECT_NEAR(static_cast<double>(count), 1e6 * b.h2, 2.0);
}

TEST(AccessGenerator, RateAccumulatesAcrossSmallChunks)
{
    const auto &b = BenchmarkRegistry::get("hmmer"); // h2 ~ 0.006
    AccessGenerator gen(b, 2, 0);
    std::uint64_t count = 0;
    for (int i = 0; i < 100'000; ++i)
        gen.run(10, [&](Addr, bool) { ++count; });
    EXPECT_NEAR(static_cast<double>(count), 1e6 * b.h2, 2.0);
}

TEST(AccessGenerator, AddressesAreBlockAligned)
{
    const auto &b = BenchmarkRegistry::get("gobmk");
    AccessGenerator gen(b, 3, jobAddressBase(5));
    gen.run(200'000, [&](Addr a, bool) {
        EXPECT_EQ(a % 64, 0u);
        EXPECT_GE(a, jobAddressBase(5));
    });
}

TEST(AccessGenerator, DisjointAddressSpaces)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    AccessGenerator g1(b, 1, jobAddressBase(0));
    AccessGenerator g2(b, 1, jobAddressBase(1));
    std::set<Addr> a1, a2;
    g1.run(500'000, [&](Addr a, bool) { a1.insert(a); });
    g2.run(500'000, [&](Addr a, bool) { a2.insert(a); });
    for (Addr a : a1)
        EXPECT_EQ(a2.count(a), 0u);
}

TEST(AccessGenerator, DeterministicForSeed)
{
    const auto &b = BenchmarkRegistry::get("mcf");
    AccessGenerator g1(b, 42, 0), g2(b, 42, 0);
    std::vector<Addr> s1, s2;
    g1.run(100'000, [&](Addr a, bool) { s1.push_back(a); });
    g2.run(100'000, [&](Addr a, bool) { s2.push_back(a); });
    EXPECT_EQ(s1, s2);
}

TEST(AccessGenerator, WriteFractionRealized)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    AccessGenerator gen(b, 7, 0);
    std::uint64_t writes = 0, total = 0;
    gen.run(3'000'000, [&](Addr, bool w) {
        ++total;
        writes += w ? 1 : 0;
    });
    ASSERT_GT(total, 0u);
    EXPECT_NEAR(static_cast<double>(writes) / total, b.writeFraction,
                0.02);
}

TEST(AccessGenerator, FullModeHasHigherRate)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    AccessGenerator l2(b, 1, 0, TraceMode::L2Stream);
    AccessGenerator full(b, 1, 0, TraceMode::Full);
    EXPECT_DOUBLE_EQ(l2.rate(), b.h2);
    EXPECT_DOUBLE_EQ(full.rate(), b.memRefsPerInstr);
    EXPECT_GT(full.rate(), l2.rate());
}

TEST(AccessGenerator, FullStreamProfileWeightsL1Reuse)
{
    const auto &b = BenchmarkRegistry::get("gobmk");
    const auto prof = buildFullStreamProfile(b);
    // The L1-resident geometric component dominates: at an L1-sized
    // capacity (512 blocks) the stream's miss rate is bounded by the
    // L2-destined fraction (components with short distances can only
    // lower it further) and is far below the raw stream rate.
    const double l2_fraction = b.h2 / b.memRefsPerInstr;
    const double miss512 = prof.expectedMissRate(512);
    EXPECT_LE(miss512, l2_fraction * 1.1);
    EXPECT_GT(miss512, 0.0);
    // Nearly everything hits within a small L1-like capacity.
    EXPECT_LT(miss512, 0.08);
}

TEST(AccessGenerator, WriteBoundMatchesBernoulli)
{
    std::vector<double> ps{0.0, 1.0, 1.5, -0.1,
                           std::numeric_limits<double>::quiet_NaN()};
    for (const BenchmarkProfile &b : BenchmarkRegistry::all())
        ps.push_back(b.writeFraction);
    Rng gen(47);
    for (int i = 0; i < 200; ++i)
        ps.push_back(gen.uniform() * std::pow(10.0, gen.uniformRange(-9, 0)));
    for (const double p : ps) {
        const std::uint64_t bound = Rng::bernoulliBound(p);
        ASSERT_LE(bound, Rng::drawSpan) << p;
        // uniform() < p at a given draw, as bernoulli() evaluates it.
        const auto holds = [p](std::uint64_t bits) {
            return static_cast<double>(bits) * 0x1.0p-53 < p;
        };
        if (bound > 0) {
            EXPECT_TRUE(holds(bound - 1)) << p;
            EXPECT_TRUE(holds(0)) << p;
        }
        if (bound < Rng::drawSpan) {
            EXPECT_FALSE(holds(bound)) << p;
            EXPECT_FALSE(holds(Rng::drawSpan - 1)) << p;
        }
        Rng by_bernoulli(53), by_bound(53);
        for (int j = 0; j < 10'000; ++j)
            ASSERT_EQ(by_bound.draw53() < bound, by_bernoulli.bernoulli(p))
                << p << ", draw " << j;
    }
}

/**
 * A profile whose 16 warmed blocks of 2^30 bytes fill the job's 2^34-byte
 * window exactly, with a cold share that touches new blocks.
 */
BenchmarkProfile
windowFillingProfile(double cold_weight)
{
    BenchmarkProfile p = BenchmarkRegistry::get("bzip2");
    std::vector<ProfileComponent> comps{ProfileComponent::uniform(1.0, 1, 16)};
    if (cold_weight > 0.0)
        comps.push_back(ProfileComponent::cold(cold_weight));
    p.l2Profile = StackDistanceProfile(comps);
    return p;
}

TEST(AccessGenerator, BlocksUpToTheWindowEdgeAreKept)
{
    const BenchmarkProfile p = windowFillingProfile(0.0);
    const Addr base = jobAddressBase(3);
    AccessGenerator gen(p, 1, base, TraceMode::L2Stream, 1u << 30);
    Addr top = 0;
    gen.forEachStandingBlock([&](Addr a) { top = std::max(top, a); });
    EXPECT_EQ(top, base + 15 * (Addr{1} << 30));
    std::uint64_t count = 0;
    gen.run(100'000, [&](Addr a, bool) {
        ++count;
        EXPECT_LT(a - base, Addr{1} << jobAddressBits);
    });
    EXPECT_GT(count, 0u);
}

TEST(AccessGenerator, BlockPastTheWindowIsFatal)
{
    const BenchmarkProfile p = windowFillingProfile(0.5);
    AccessGenerator gen(p, 1, jobAddressBase(3), TraceMode::L2Stream,
                        1u << 30);
    EXPECT_EXIT(gen.run(100'000, [](Addr, bool) {}),
                ::testing::ExitedWithCode(1), "address window");
}

TEST(AccessGenerator, MaxJobInstructionsFillsAllButOneBlockOfTheWindow)
{
    // After the warm fill each access takes at most one new block. A job
    // of maxJobInstructions() owes fewer accesses than the blocks left
    // but one, rounding included; one instruction more would reach into
    // that spare block.
    const double window = 0x1p28; // 2^34 bytes of 64-byte blocks
    for (const BenchmarkProfile &b : BenchmarkRegistry::all()) {
        const InstCount most = maxJobInstructions(b);
        const auto warm =
            static_cast<double>(b.l2Profile.maxFiniteDistance());
        EXPECT_LT(warm + static_cast<double>(most) * b.h2, window - 0.5)
            << b.name;
        EXPECT_GT(warm + static_cast<double>(most + 1) * b.h2,
                  window - 1.5)
            << b.name;
    }
}

TEST(AccessGenerator, JobAddressBasesAreDistinct)
{
    EXPECT_NE(jobAddressBase(0), jobAddressBase(1));
    EXPECT_GT(jobAddressBase(1) - jobAddressBase(0), 1ull << 30);
}

} // namespace
} // namespace cmpqos
