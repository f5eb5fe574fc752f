/**
 * @file
 * FaultPlan unit tests: the text round-trip (a failing chaos case
 * must be copy-pasteable into cluster_driver --fault-plan), parse
 * error reporting, and the seeded random generator's determinism.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "fault/injector.hh"
#include "fault/plan.hh"

namespace cmpqos
{
namespace
{

FaultPlan
samplePlan()
{
    FaultPlan plan;
    plan.faults.push_back({FaultType::NodeCrash, 1, 3, 1, 1, 0});
    plan.faults.push_back({FaultType::NodeRestart, 1, 6, 1, 1, 0});
    plan.faults.push_back({FaultType::ProbeDrop, 2, 2, 3, 1, 0});
    plan.faults.push_back({FaultType::ProbeTimeout, 0, 4, 2, 5, 0});
    plan.faults.push_back({FaultType::DuplicateReply, 3, 1, 4, 1, 0});
    plan.faults.push_back(
        {FaultType::SlowQuantum, 0, 5, 2, 1, 300'000});
    return plan;
}

TEST(FaultPlan, TextRoundTrip)
{
    const FaultPlan plan = samplePlan();
    std::ostringstream os;
    plan.write(os);

    std::istringstream is(os.str());
    FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(FaultPlan::tryParse(is, parsed, error)) << error;
    ASSERT_EQ(parsed.faults.size(), plan.faults.size());
    for (std::size_t i = 0; i < plan.faults.size(); ++i)
        EXPECT_EQ(parsed.faults[i].format(), plan.faults[i].format())
            << "directive " << i;
    EXPECT_EQ(parsed.summary(), plan.summary());
}

TEST(FaultPlan, CommentsAndBlankLinesIgnored)
{
    std::istringstream is("# a comment\n"
                          "\n"
                          "crash 1 3   # trailing comment\n"
                          "restart 1 5\n");
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::tryParse(is, plan, error)) << error;
    ASSERT_EQ(plan.faults.size(), 2u);
    EXPECT_EQ(plan.faults[0].type, FaultType::NodeCrash);
    EXPECT_EQ(plan.faults[0].node, 1);
    EXPECT_EQ(plan.faults[0].quantum, 3u);
    EXPECT_EQ(plan.faults[1].type, FaultType::NodeRestart);
}

TEST(FaultPlan, MalformedDirectiveReportsLine)
{
    std::istringstream is("crash 1 3\nfrobnicate 0 0\n");
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::tryParse(is, plan, error));
    EXPECT_NE(error.find("2"), std::string::npos)
        << "error should name the offending line: " << error;
}

TEST(FaultPlan, MissingOperandFails)
{
    std::istringstream is("crash 1\n");
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::tryParse(is, plan, error));

    // An operand is one whole word in its field's range, an optional
    // one that is present must be valid, and nothing follows the last.
    for (const char *line :
         {"crash 0 5 junk", "crash 1 2.5", "crash 0 -1",
          "crash 2147483648 1", "slow-quantum 1 2 3 -5",
          "probe-timeout 0 3 2 abc", "probe-drop 0 1 2.5"}) {
        std::istringstream bad(line);
        FaultPlan out;
        EXPECT_FALSE(FaultPlan::tryParse(bad, out, error)) << line;
        EXPECT_NE(error.find("line 1"), std::string::npos)
            << line << ": " << error;
    }
}

TEST(FaultPlan, RandomIsDeterministicPerSeed)
{
    const FaultPlan a = FaultPlan::random(42, 4, 10, 8);
    const FaultPlan b = FaultPlan::random(42, 4, 10, 8);
    const FaultPlan c = FaultPlan::random(43, 4, 10, 8);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_NE(a.summary(), c.summary());
    EXPECT_GE(a.faults.size(), 8u);
    a.validate(4); // every directive targets a node in range
}

TEST(FaultPlan, SummaryIsReparseable)
{
    // The one-line reproducer form: semicolons become newlines.
    const FaultPlan plan = FaultPlan::random(7, 3, 6, 5);
    std::string text = plan.summary();
    for (char &ch : text)
        if (ch == ';')
            ch = '\n';
    std::istringstream is(text);
    FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(FaultPlan::tryParse(is, parsed, error)) << error;
    EXPECT_EQ(parsed.summary(), plan.summary());
}

TEST(FaultInjector, CompilesQuantaToCyclesAndConsumesActions)
{
    const FaultPlan plan = samplePlan();
    FaultInjector inj(plan, 500'000);
    EXPECT_FALSE(inj.empty());
    EXPECT_TRUE(inj.actionsPending());

    // Nothing due before the crash barrier (quantum 3).
    EXPECT_TRUE(inj.actionsDue(1'000'000).empty());
    auto due = inj.actionsDue(1'500'000);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].type, FaultType::NodeCrash);
    EXPECT_EQ(due[0].node, 1);
    EXPECT_EQ(due[0].quantum, 3u);

    // The cursor consumed it: a second query returns nothing.
    EXPECT_TRUE(inj.actionsDue(1'500'000).empty());
    due = inj.actionsDue(3'000'000);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].type, FaultType::NodeRestart);
    EXPECT_FALSE(inj.actionsPending());
}

TEST(FaultInjector, WindowQueriesAreHalfOpen)
{
    const FaultPlan plan = samplePlan();
    FaultInjector inj(plan, 500'000);

    // probe-drop node 2, quanta [2, 5): cycles [1M, 2.5M).
    EXPECT_FALSE(inj.probeDropped(2, 999'999));
    EXPECT_TRUE(inj.probeDropped(2, 1'000'000));
    EXPECT_TRUE(inj.probeDropped(2, 2'499'999));
    EXPECT_FALSE(inj.probeDropped(2, 2'500'000));
    EXPECT_FALSE(inj.probeDropped(1, 1'000'000)); // other node

    EXPECT_EQ(inj.probeTimeoutFailures(0, 2'000'000), 5u);
    EXPECT_EQ(inj.probeTimeoutFailures(0, 3'000'000), 0u);
    EXPECT_TRUE(inj.duplicateReply(3, 500'000));
    EXPECT_EQ(inj.stallCycles(0, 2'500'000), 300'000u);
    EXPECT_EQ(inj.stallCycles(0, 3'500'000), 0u);
}

TEST(FaultInjector, NextEventTimeCapsJumps)
{
    FaultPlan plan;
    plan.faults.push_back({FaultType::NodeCrash, 0, 4, 1, 1, 0});
    plan.faults.push_back({FaultType::ProbeDrop, 1, 8, 2, 1, 0});
    FaultInjector inj(plan, 1'000'000);

    EXPECT_EQ(inj.nextEventTime(0), 4'000'000u);
    (void)inj.actionsDue(4'000'000);
    EXPECT_EQ(inj.nextEventTime(4'000'000), 8'000'000u);
    // Inside the window the injector reports immediate activity so
    // the engine steps quantum-by-quantum instead of jumping.
    EXPECT_EQ(inj.nextEventTime(8'500'000), 8'500'001u);
    EXPECT_EQ(inj.nextEventTime(10'000'000), maxCycle);
}

} // namespace
} // namespace cmpqos
