/**
 * @file
 * Unit tests for execution-side job state.
 */

#include <gtest/gtest.h>

#include "sim/job_exec.hh"

namespace cmpqos
{
namespace
{

TEST(JobExecution, ProgressTracking)
{
    const auto &b = BenchmarkRegistry::get("gobmk");
    JobExecution j(0, b, 1000, 1);
    EXPECT_EQ(j.length(), 1000u);
    EXPECT_EQ(j.remaining(), 1000u);
    EXPECT_FALSE(j.complete());
    j.noteExecuted(400);
    EXPECT_EQ(j.executed(), 400u);
    EXPECT_EQ(j.remaining(), 600u);
    j.noteExecuted(600);
    EXPECT_TRUE(j.complete());
    EXPECT_EQ(j.remaining(), 0u);
}

TEST(JobExecution, WallClockRequiresStartAndEnd)
{
    const auto &b = BenchmarkRegistry::get("gobmk");
    JobExecution j(1, b, 100, 1);
    EXPECT_FALSE(j.started());
    EXPECT_DOUBLE_EQ(j.wallClock(), 0.0);
    j.startCycle = 100.0;
    j.endCycle = 350.0;
    EXPECT_TRUE(j.started());
    EXPECT_DOUBLE_EQ(j.wallClock(), 250.0);
}

TEST(JobExecution, StatsAccessors)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    JobExecution j(2, b, 100, 1);
    j.l2Accesses = 200;
    j.l2Misses = 50;
    j.cyclesRun = 500.0;
    j.noteExecuted(100);
    EXPECT_DOUBLE_EQ(j.missRate(), 0.25);
    EXPECT_DOUBLE_EQ(j.cpi(), 5.0);
}

TEST(JobExecution, CpiParamsFromProfile)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    JobExecution j(3, b, 100, 1);
    const auto p = j.cpiParams(10.0);
    EXPECT_DOUBLE_EQ(p.cpiL1Inf, b.cpiL1Inf);
    EXPECT_DOUBLE_EQ(p.t2, 10.0);
}

TEST(JobExecution, DuplicateTagLifecycle)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    JobExecution j(4, b, 100, 1);
    EXPECT_EQ(j.duplicateTags(), nullptr);
    j.attachDuplicateTags(std::make_unique<DuplicateTagArray>(
        CacheConfig::l2Default(), 7, 8));
    ASSERT_NE(j.duplicateTags(), nullptr);
    EXPECT_EQ(j.duplicateTags()->baselineWays(), 7u);
    j.detachDuplicateTags();
    EXPECT_EQ(j.duplicateTags(), nullptr);
}

TEST(JobExecution, RetireDropsStreamAndKeepsStats)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    JobExecution j(5, b, 1000, 1);
    EXPECT_FALSE(j.retired());
    std::uint64_t accesses = 0;
    j.generator().run(1000, [&](Addr, bool) { ++accesses; });
    j.l2Accesses = accesses;
    j.noteExecuted(1000);
    j.retire();
    EXPECT_TRUE(j.retired());
    EXPECT_EQ(j.l2Accesses, accesses);
    EXPECT_TRUE(j.complete());
}

TEST(JobExecution, GeneratorAfterRetireIsFatal)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    JobExecution j(6, b, 100, 1);
    j.retire();
    EXPECT_DEATH(j.generator(), "after retire");
}

} // namespace
} // namespace cmpqos
