/**
 * @file
 * Whole-workload integration tests: scaled-down versions of the
 * paper's evaluation runs (Section 7), checking the headline
 * qualitative results — 100% deadline hit rate for accepted QoS
 * jobs, EqualPart's misses, and throughput ordering.
 */

#include <gtest/gtest.h>

#include "qos/framework.hh"
#include "qos/workload_spec.hh"

namespace cmpqos
{
namespace
{

constexpr InstCount kJobInstr = 4'000'000; // scaled-down jobs

WorkloadResult
runConfig(ModeConfig config, const char *bench, std::uint64_t seed = 3,
          std::size_t n_jobs = 6)
{
    FrameworkConfig fc = FrameworkConfig::forModeConfig(config);
    fc.cmp.chunkInstructions = 20'000;
    fc.stealing.intervalInstructions = 500'000;
    QosFramework fw(fc);
    return fw.runWorkload(
        makeSingleBenchmarkWorkload(config, bench, n_jobs, kJobInstr,
                                    seed));
}

TEST(WorkloadRuns, AllStrictAllDeadlinesMet)
{
    const auto r = runConfig(ModeConfig::AllStrict, "bzip2");
    EXPECT_EQ(r.jobs.size(), 6u);
    EXPECT_DOUBLE_EQ(r.deadlineHitRate(true), 1.0);
    EXPECT_GT(r.candidatesSubmitted, r.jobs.size());
    EXPECT_GT(r.makespan, 0.0);
}

TEST(WorkloadRuns, Hybrid1AllQosDeadlinesMet)
{
    const auto r = runConfig(ModeConfig::Hybrid1, "bzip2");
    EXPECT_DOUBLE_EQ(r.deadlineHitRate(true), 1.0);
    // 70/30 mix among the accepted jobs (6 jobs -> 4 strict, 2 opp).
    int opp = 0;
    for (const auto &j : r.jobs)
        opp += j.mode == ExecutionMode::Opportunistic;
    EXPECT_EQ(opp, 2);
}

TEST(WorkloadRuns, Hybrid2ElasticJobsMeetDeadlines)
{
    const auto r = runConfig(ModeConfig::Hybrid2, "gobmk");
    EXPECT_DOUBLE_EQ(r.deadlineHitRate(true), 1.0);
    bool saw_elastic = false;
    for (const auto &j : r.jobs) {
        if (j.mode == ExecutionMode::Elastic) {
            saw_elastic = true;
            EXPECT_TRUE(j.deadlineMet);
        }
    }
    EXPECT_TRUE(saw_elastic);
}

TEST(WorkloadRuns, AutoDownAllDeadlinesMet)
{
    const auto r = runConfig(ModeConfig::AllStrictAutoDown, "bzip2");
    EXPECT_DOUBLE_EQ(r.deadlineHitRate(true), 1.0);
    // Jobs with slack were downgraded; at least one exists in the
    // 50/30/20 deadline mix.
    int downgraded = 0;
    for (const auto &j : r.jobs)
        downgraded += j.autoDowngraded;
    EXPECT_GT(downgraded, 0);
}

TEST(WorkloadRuns, EqualPartMissesDeadlines)
{
    const auto r = runConfig(ModeConfig::EqualPart, "bzip2");
    EXPECT_LT(r.deadlineHitRate(false), 1.0);
    EXPECT_EQ(r.rejected, 0u); // no admission control
}

TEST(WorkloadRuns, ThroughputOrderingMatchesPaper)
{
    // Figure 5(b): All-Strict is slowest; Hybrid-1 and AutoDown
    // recover throughput; EqualPart is fastest (for a sensitive
    // benchmark it stays ahead of the QoS configs).
    const auto all_strict = runConfig(ModeConfig::AllStrict, "gobmk");
    const auto hybrid1 = runConfig(ModeConfig::Hybrid1, "gobmk");
    const auto equal = runConfig(ModeConfig::EqualPart, "gobmk");
    EXPECT_GT(hybrid1.throughputVs(all_strict), 1.05);
    EXPECT_GT(equal.throughputVs(all_strict), 1.1);
}

TEST(WorkloadRuns, AutoDownImprovesThroughput)
{
    const auto all_strict = runConfig(ModeConfig::AllStrict, "gobmk");
    const auto autodown =
        runConfig(ModeConfig::AllStrictAutoDown, "gobmk");
    EXPECT_GT(autodown.throughputVs(all_strict), 1.02);
}

TEST(WorkloadRuns, StrictWallClocksAreStable)
{
    // Figure 6: Strict jobs have short, near-constant wall-clock
    // times under reservation.
    const auto r = runConfig(ModeConfig::AllStrict, "bzip2");
    const auto wcs = r.wallClocks(ExecutionMode::Strict);
    ASSERT_GE(wcs.size(), 2u);
    const double mn = *std::min_element(wcs.begin(), wcs.end());
    const double mx = *std::max_element(wcs.begin(), wcs.end());
    EXPECT_LT((mx - mn) / mn, 0.08);
}

TEST(WorkloadRuns, LacOccupancyIsSmall)
{
    // Section 7.5: <1% at the paper's scale. Scaled-down jobs shrink
    // the makespan while the arrival count per wall-clock time stays
    // fixed, inflating the *relative* occupancy by the same factor;
    // the sec75 bench demonstrates <1% at bench scale. Here we bound
    // it loosely and check it is nonzero.
    const auto r = runConfig(ModeConfig::AllStrict, "bzip2");
    EXPECT_LT(r.lacOccupancy(), 0.05);
    EXPECT_GT(r.lacOverheadCycles, 0u);
}

TEST(WorkloadRuns, MixedWorkloadQosHolds)
{
    FrameworkConfig fc = FrameworkConfig::forModeConfig(ModeConfig::Hybrid2);
    fc.cmp.chunkInstructions = 20'000;
    fc.stealing.intervalInstructions = 500'000;
    QosFramework fw(fc);
    const auto r = fw.runWorkload(makeMixedWorkload(
        ModeConfig::Hybrid2, MixType::Mix1, 6, kJobInstr, 5));
    EXPECT_DOUBLE_EQ(r.deadlineHitRate(true), 1.0);
}

TEST(WorkloadRuns, CompletedJobsRetireTheirStreams)
{
    // Every accepted job's access stream is destroyed when the job
    // completes; rejected candidates never had one.
    FrameworkConfig fc = FrameworkConfig::forModeConfig(ModeConfig::Hybrid2);
    fc.cmp.chunkInstructions = 20'000;
    fc.stealing.intervalInstructions = 500'000;
    QosFramework fw(fc);
    fw.runWorkload(makeSingleBenchmarkWorkload(ModeConfig::Hybrid2,
                                               "gobmk", 6, kJobInstr, 3));
    std::size_t accepted = 0;
    for (const auto &job : fw.jobs()) {
        if (job->exec() == nullptr)
            continue;
        ++accepted;
        EXPECT_TRUE(job->exec()->complete()) << "job " << job->id();
        EXPECT_TRUE(job->exec()->retired()) << "job " << job->id();
    }
    EXPECT_EQ(accepted, 6u);
}

TEST(WorkloadRuns, ResultDeterministicForSeed)
{
    const auto a = runConfig(ModeConfig::Hybrid1, "gobmk", 11);
    const auto b = runConfig(ModeConfig::Hybrid1, "gobmk", 11);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    for (std::size_t i = 0; i < a.jobs.size(); ++i)
        EXPECT_DOUBLE_EQ(a.jobs[i].wallClock, b.jobs[i].wallClock);
}

} // namespace
} // namespace cmpqos
