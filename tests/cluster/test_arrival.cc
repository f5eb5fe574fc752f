/**
 * @file
 * Tests for the open-loop arrival processes feeding the cluster
 * engine: Poisson determinism and mix sampling, trace replay, and the
 * tier-to-request translation.
 */

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/arrival.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"

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

    // At the edges of both bounds, a line the journal writes reads
    // back through the trace as the same arrival. A hmmer job's count
    // stops short of maxArrivalInstructions, at its address window.
    for (const Cycle time : {Cycle{0}, maxArrivalTime}) {
        for (const InstCount instructions :
             {InstCount{1},
              maxJobInstructions(BenchmarkRegistry::get("hmmer"))}) {
            std::ostringstream os;
            ArrivalLine{time, "hmmer", QosTier::Silver, instructions}.write(
                os);
            std::istringstream in(os.str());
            TraceArrivalProcess p(in, ArrivalMix::defaults());
            const std::vector<ClusterArrival> got = collect(p);
            ASSERT_EQ(got.size(), 1u) << os.str();
            EXPECT_EQ(got[0].time, time);
            EXPECT_EQ(got[0].tier, QosTier::Silver);
            EXPECT_EQ(got[0].request.benchmark, "hmmer");
            EXPECT_EQ(got[0].instructions, instructions);
        }
    }
}

TEST(Arrival, JobsPastTheirAddressWindowAreRefused)
{
    for (const BenchmarkProfile &b : BenchmarkRegistry::all()) {
        const InstCount most = maxJobInstructions(b);
        ASSERT_LT(most, maxArrivalInstructions) << b.name;
        EXPECT_EQ(arrivalBoundsError(maxArrivalTime, most, b.name), "")
            << b.name;
        const std::string why =
            arrivalBoundsError(0, most + 1, b.name);
        EXPECT_NE(why.find("past its address window"), std::string::npos)
            << b.name << ": " << why;
    }
    // The sums' bounds come first, as without a benchmark.
    EXPECT_EQ(arrivalBoundsError(0, 0, "bzip2"),
              arrivalBoundsError(0, 0));
    EXPECT_EQ(arrivalBoundsError(maxArrivalTime + 1, 1, "bzip2"),
              arrivalBoundsError(maxArrivalTime + 1, 1));
    // libquantum takes a fresh block on 0.0225 of its instructions, so
    // 1.2e10 of them would pass 2^28 blocks of 64 B.
    EXPECT_EQ(arrivalBoundsError(0, 12'000'000'000ULL, "libquantum"),
              "instruction count 12000000000 would take a libquantum job "
              "past its address window (at most " +
                  std::to_string(maxJobInstructions(
                      BenchmarkRegistry::get("libquantum"))) +
                  ")");
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
    // A number is one whole unsigned word, and nothing follows the
    // count.
    EXPECT_EXIT(parseTrace("0 bzip2 gold 12.5e3\n"), ExitedWithCode(1),
                "storm.trace:1: instruction count '12.5e3'");
    EXPECT_EXIT(parseTrace("0 bzip2 gold 500000x\n"), ExitedWithCode(1),
                "storm.trace:1: instruction count '500000x'");
    EXPECT_EXIT(parseTrace("0 bzip2 gold 5000 extra\n"),
                ExitedWithCode(1), "storm.trace:1: unexpected 'extra'");
    EXPECT_EXIT(parseTrace("-5 bzip2 gold\n"), ExitedWithCode(1),
                "storm.trace:1: arrival time '-5'");
    // A job its address window cannot hold is refused as it is read,
    // not when its stream gets there.
    EXPECT_EXIT(parseTrace("0 bzip2 gold\n"
                           "10 libquantum gold 12000000000\n"),
                ExitedWithCode(1),
                "storm.trace:2: instruction count 12000000000 would take "
                "a libquantum job past its address window");
    // The Poisson process checks its mix's count the same way, for
    // every benchmark of the mix.
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 0;
    EXPECT_EXIT(PoissonArrivalProcess(1000.0, mix, 1, 1),
                ExitedWithCode(1), "arrival mix: instruction count 0");
    mix.benchmarks = {"povray", "mcf"};
    mix.instructions = maxJobInstructions(BenchmarkRegistry::get("mcf")) + 1;
    EXPECT_EXIT(PoissonArrivalProcess(1000.0, mix, 1, 1),
                ExitedWithCode(1), "arrival mix: .* a mcf job past its");
}

void
drawPoisson(double mean, std::uint64_t jobs)
{
    PoissonArrivalProcess p(mean, ArrivalMix::defaults(), 1, jobs);
    collect(p);
}

TEST(PoissonArrivalDeathTest, ArrivalsBeyondTheBoundAreFatal)
{
    using ::testing::ExitedWithCode;
    // A clock past maxArrivalTime has no Cycle to become.
    EXPECT_EXIT(drawPoisson(1e30, 3), ExitedWithCode(1),
                "Poisson arrival 1 at mean inter-arrival 1e\\+30");
    for (const double mean :
         {0.0, -5.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()})
        EXPECT_EXIT(drawPoisson(mean, 3), ExitedWithCode(1),
                    "mean inter-arrival time .* is not a positive, "
                    "finite cycle count")
            << mean;
}

} // namespace
} // namespace cmpqos
