/**
 * @file
 * Tests for the open-loop arrival processes feeding the cluster
 * engine: Poisson determinism and mix sampling, trace replay, and the
 * tier-to-request translation.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <vector>

#include "cluster/arrival.hh"

namespace cmpqos
{
namespace
{

std::vector<ClusterArrival>
collect(ArrivalProcess &p)
{
    std::vector<ClusterArrival> out;
    while (auto a = p.next())
        out.push_back(*a);
    return out;
}

TEST(ArrivalMix, DefaultsUseRepresentativeBenchmarks)
{
    const ArrivalMix mix = ArrivalMix::defaults();
    ASSERT_EQ(mix.benchmarks.size(), 3u);
    // Tier weights sum to 1 and are ordered Gold > Silver > Bronze.
    double sum = 0.0;
    for (const TierSpec &t : mix.tiers)
        sum += t.weight;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(mix.tiers[0].weight, mix.tiers[1].weight);
    EXPECT_GT(mix.tiers[1].weight, mix.tiers[2].weight);
}

TEST(Arrival, TierRequestTranslatesTierSpec)
{
    const ArrivalMix mix = ArrivalMix::defaults();
    const JobRequest gold = tierRequest(mix, QosTier::Gold, "bzip2");
    EXPECT_EQ(gold.benchmark, "bzip2");
    EXPECT_EQ(gold.mode.mode, ExecutionMode::Strict);
    EXPECT_DOUBLE_EQ(gold.deadlineFactor, mix.tiers[0].deadlineFactor);
    EXPECT_EQ(gold.ways, mix.tiers[0].ways);

    const JobRequest bronze =
        tierRequest(mix, QosTier::Bronze, "hmmer");
    EXPECT_EQ(bronze.mode.mode, ExecutionMode::Opportunistic);
    EXPECT_EQ(bronze.benchmark, "hmmer");
}

TEST(Arrival, QosTierNames)
{
    EXPECT_STREQ(qosTierName(QosTier::Gold), "gold");
    EXPECT_STREQ(qosTierName(QosTier::Silver), "silver");
    EXPECT_STREQ(qosTierName(QosTier::Bronze), "bronze");
}

TEST(PoissonArrival, RespectsMaxJobs)
{
    PoissonArrivalProcess p(1000.0, ArrivalMix::defaults(), 1, 25);
    EXPECT_EQ(collect(p).size(), 25u);
}

TEST(PoissonArrival, TimesAreMonotonic)
{
    PoissonArrivalProcess p(500.0, ArrivalMix::defaults(), 7, 200);
    Cycle last = 0;
    for (const ClusterArrival &a : collect(p)) {
        EXPECT_GE(a.time, last);
        last = a.time;
    }
}

TEST(PoissonArrival, SameSeedSameStream)
{
    PoissonArrivalProcess p1(800.0, ArrivalMix::defaults(), 99, 60);
    PoissonArrivalProcess p2(800.0, ArrivalMix::defaults(), 99, 60);
    const auto a = collect(p1);
    const auto b = collect(p2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].tier, b[i].tier);
        EXPECT_EQ(a[i].request.benchmark, b[i].request.benchmark);
    }
}

TEST(PoissonArrival, DifferentSeedsDiverge)
{
    PoissonArrivalProcess p1(800.0, ArrivalMix::defaults(), 1, 40);
    PoissonArrivalProcess p2(800.0, ArrivalMix::defaults(), 2, 40);
    const auto a = collect(p1);
    const auto b = collect(p2);
    bool differ = false;
    for (std::size_t i = 0; i < a.size() && !differ; ++i)
        differ = a[i].time != b[i].time ||
                 a[i].request.benchmark != b[i].request.benchmark;
    EXPECT_TRUE(differ);
}

TEST(PoissonArrival, SamplesEveryTierAndBenchmark)
{
    PoissonArrivalProcess p(200.0, ArrivalMix::defaults(), 5, 500);
    std::array<int, numQosTiers> tierCount{};
    std::array<int, 3> benchCount{};
    const ArrivalMix mix = ArrivalMix::defaults();
    for (const ClusterArrival &a : collect(p)) {
        ++tierCount[static_cast<std::size_t>(a.tier)];
        for (std::size_t b = 0; b < mix.benchmarks.size(); ++b)
            if (a.request.benchmark == mix.benchmarks[b])
                ++benchCount[b];
    }
    for (int c : tierCount)
        EXPECT_GT(c, 0);
    for (int c : benchCount)
        EXPECT_GT(c, 0);
    // Gold is weighted 50%: with 500 samples it must dominate Bronze.
    EXPECT_GT(tierCount[0], tierCount[2]);
}

TEST(TraceArrival, ReplaysLinesInOrder)
{
    std::istringstream in("# demo trace\n"
                          "0 bzip2 gold\n"
                          "1000 hmmer silver 123456\n"
                          "\n"
                          "2500 gobmk bronze\n");
    TraceArrivalProcess p(in, ArrivalMix::defaults(), "test");
    EXPECT_EQ(p.totalArrivals(), 3u);

    auto a = p.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->time, 0u);
    EXPECT_EQ(a->tier, QosTier::Gold);
    EXPECT_EQ(a->request.benchmark, "bzip2");
    EXPECT_EQ(a->instructions, ArrivalMix::defaults().instructions);

    a = p.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->time, 1000u);
    EXPECT_EQ(a->tier, QosTier::Silver);
    EXPECT_EQ(a->instructions, 123456u);

    a = p.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->time, 2500u);
    EXPECT_EQ(a->tier, QosTier::Bronze);
    EXPECT_EQ(a->request.benchmark, "gobmk");

    EXPECT_FALSE(p.next().has_value());
}

TEST(Arrival, ParseQosTierInvertsQosTierName)
{
    for (std::size_t i = 0; i < numQosTiers; ++i) {
        const auto tier = static_cast<QosTier>(i);
        QosTier parsed = tier == QosTier::Gold ? QosTier::Bronze
                                               : QosTier::Gold;
        EXPECT_TRUE(parseQosTier(qosTierName(tier), parsed));
        EXPECT_EQ(parsed, tier);
    }
    QosTier t = QosTier::Gold;
    EXPECT_FALSE(parseQosTier("Gold", t));
    EXPECT_FALSE(parseQosTier("?", t));
}

TEST(Arrival, BoundsRefuseOverflowingArrivals)
{
    EXPECT_EQ(arrivalBoundsError(0, 1), "");
    EXPECT_EQ(arrivalBoundsError(maxArrivalTime, maxArrivalInstructions),
              "");
    EXPECT_NE(arrivalBoundsError(maxArrivalTime + 1, 1), "");
    EXPECT_NE(arrivalBoundsError(0, 0), "");
    EXPECT_NE(arrivalBoundsError(0, maxArrivalInstructions + 1), "");
}

void
parseTrace(const char *text)
{
    std::istringstream in(text);
    TraceArrivalProcess p(in, ArrivalMix::defaults(), "storm.trace");
}

TEST(TraceArrivalDeathTest, OutOfRangeArrivalsAreFatal)
{
    using ::testing::ExitedWithCode;
    EXPECT_EXIT(parseTrace("0 bzip2 gold\n"
                           "18446744073709551615 bzip2 gold\n"),
                ExitedWithCode(1),
                "storm.trace:2: arrival time 18446744073709551615");
    EXPECT_EXIT(parseTrace("99999999999999999999 bzip2 gold\n"),
                ExitedWithCode(1), "storm.trace:1: arrival time");
    EXPECT_EXIT(parseTrace("0 bzip2 gold 18446744073709551615\n"),
                ExitedWithCode(1),
                "storm.trace:1: instruction count 18446744073709551615");
    EXPECT_EXIT(parseTrace("# header\n0 bzip2 gold 0\n"),
                ExitedWithCode(1), "storm.trace:2: instruction count 0");
    // The Poisson process checks its mix's count the same way.
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 0;
    EXPECT_EXIT(PoissonArrivalProcess(1000.0, mix, 1, 1),
                ExitedWithCode(1), "arrival mix: instruction count 0");
}

} // namespace
} // namespace cmpqos
