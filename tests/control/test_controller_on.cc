/**
 * @file
 * Controller-on behaviour: the feedback controller must actuate (the
 * run is visibly different from static partitioning), stay inside the
 * fault oracle's invariant envelope, and — because every decision is
 * a pure function of deterministic quantum statistics — reproduce
 * bit-identically at any worker-thread count and any shard count.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "cluster/engine.hh"
#include "common/wire_codec.hh"
#include "control/config.hh"
#include "control/controller.hh"
#include "federation/federated_engine.hh"

namespace cmpqos
{
namespace
{

ClusterConfig
controlledCluster(unsigned threads)
{
    ClusterConfig c;
    c.nodes = 8;
    c.threads = threads;
    c.seed = 42;
    c.control.enabled = true;
    return c;
}

ArrivalMix
bigMix()
{
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 2'000'000;
    return mix;
}

ClusterMetrics
runControlled(unsigned threads)
{
    ClusterConfig c = controlledCluster(threads);
    PoissonArrivalProcess stream(500'000.0, bigMix(),
                                 c.seed ^ 0xa11a1ULL, 96);
    ClusterEngine engine(c);
    return engine.runToCompletion(stream);
}

ClusterMetrics
runFederated(int shards, unsigned threads)
{
    ClusterConfig c = controlledCluster(threads);
    FederationConfig fed;
    fed.shards = shards;
    PoissonArrivalProcess stream(500'000.0, bigMix(),
                                 c.seed ^ 0xa11a1ULL, 96);
    FederatedEngine engine(c, fed);
    return engine.runToCompletion(stream);
}

TEST(ControllerOn, ActuatesAndAccountsEnergy)
{
    const ClusterMetrics m = runControlled(1);
    EXPECT_TRUE(m.controllerOn);
    EXPECT_GT(m.control.retunes, 0u);
    EXPECT_GT(m.energy, 0.0);
    // Every node with retired instructions accumulated energy.
    for (const auto &n : m.nodes) {
        if (n.instructions > 0) {
            EXPECT_GT(n.energy, 0.0) << "node " << n.node;
        }
    }
    // The fingerprint gains the controller fields only when on.
    EXPECT_NE(m.fingerprint().find(" energy="), std::string::npos);
    EXPECT_NE(m.fingerprint().find(" control="), std::string::npos);
}

TEST(ControllerOn, DeterministicAcrossThreadCounts)
{
    const std::string f1 = runControlled(1).fingerprint();
    EXPECT_EQ(f1, runControlled(2).fingerprint());
    EXPECT_EQ(f1, runControlled(4).fingerprint());
}

TEST(ControllerOn, DeterministicAcrossShardCounts)
{
    const std::string single = runControlled(2).fingerprint();
    EXPECT_EQ(single, runFederated(2, 2).fingerprint());
    EXPECT_EQ(single, runFederated(4, 1).fingerprint());
}

TEST(ControllerOn, InvariantsHoldUnderRetuning)
{
    ClusterConfig c = controlledCluster(2);
    c.checkInvariants = true;
    // Tight hysteresis plus a power cap exercises every actuator.
    c.control.slackLow = 0.15;
    c.control.slackHigh = 0.25;
    c.control.powerCap = 6.0;
    PoissonArrivalProcess stream(500'000.0, bigMix(),
                                 c.seed ^ 0xa11a1ULL, 96);
    ClusterEngine engine(c);
    const ClusterMetrics m = engine.runToCompletion(stream);
    ASSERT_NE(engine.invariantChecker(), nullptr);
    EXPECT_TRUE(engine.invariantChecker()->ok())
        << engine.invariantChecker()->report();
    EXPECT_EQ(m.invariantViolations, 0u);
    EXPECT_GT(m.control.retunes, 0u);
}

TEST(ControllerOn, PowerCapForcesDownClocks)
{
    ClusterConfig c = controlledCluster(1);
    // A cap below the uncapped per-quantum average power forces the
    // freq-cap actuator; a generous slack band keeps the boost path
    // from fighting it.
    c.control.powerCap = 2.0;
    c.control.slackHigh = 10.0;
    PoissonArrivalProcess stream(500'000.0, bigMix(),
                                 c.seed ^ 0xa11a1ULL, 96);
    ClusterEngine engine(c);
    const ClusterMetrics m = engine.runToCompletion(stream);
    EXPECT_GT(m.control.freqDrops, 0u);
}

/**
 * The slo-0.5 row of ext_energy_cap: relaxed SLAs, a 50% SLO
 * allowance and no power cap, so only measured slack above
 * @p slack_high can make the controller economize.
 */
ClusterMetrics
runEconomizing(double slack_high)
{
    ClusterConfig c = controlledCluster(2);
    c.checkInvariants = true;
    c.control.sloSlowdown = 0.5;
    c.control.slackHigh = slack_high;
    c.control.powerCap = 0.0;
    ArrivalMix mix = bigMix();
    const double deadlines[] = {2.0, 3.0, 4.0};
    for (std::size_t t = 0; t < numQosTiers; ++t)
        mix.tiers[t].deadlineFactor = deadlines[t];
    PoissonArrivalProcess stream(250'000.0, mix, c.seed ^ 0xa11a1ULL,
                                 96);
    ClusterEngine engine(c);
    return engine.runToCompletion(stream);
}

TEST(ControllerOn, EconomizeFires)
{
    // With the power cap off, NodeController::economize is the only
    // path that drops a clock.
    const ClusterMetrics economizing = runEconomizing(0.25);
    const ClusterMetrics never = runEconomizing(1e9);
    EXPECT_GT(economizing.control.freqDrops, 0u);
    EXPECT_EQ(never.control.freqDrops, 0u);
    const auto strictHitRate = [](const ClusterMetrics &m) {
        const ModeTally &t =
            m.byMode[static_cast<std::size_t>(ExecutionMode::Strict)];
        EXPECT_GT(t.completed, 0u);
        return t.hitRate();
    };
    EXPECT_GE(strictHitRate(economizing), strictHitRate(never));
    EXPECT_EQ(economizing.invariantViolations, 0u);
    EXPECT_EQ(never.invariantViolations, 0u);
}

TEST(ControllerOn, StrictDeadlinesStillMet)
{
    // Retuning must never cost a Strict job its deadline: the floors
    // are inviolable and frequency only drops on measured slack.
    const ClusterMetrics m = runControlled(2);
    const ModeTally &strict =
        m.byMode[static_cast<std::size_t>(ExecutionMode::Strict)];
    ASSERT_GT(strict.completed, 0u);
    EXPECT_EQ(strict.deadlineHits, strict.completed);
}

TEST(ControllerOn, TalliesFlattenRoundTrip)
{
    ControlTallies t;
    t.retunes = 7;
    t.freqBoosts = 1;
    t.freqDrops = 2;
    t.wayGrants = 3;
    t.wayReturns = 4;
    t.bwGrants = 5;
    t.bwReturns = 6;
    // The tallies cross the shard link through their one field list:
    // one u64 per counter, and every counter comes back.
    BinWriter w;
    visitFields(t, w);
    EXPECT_EQ(w.out.size(), std::size(controlTallyFields) * 8);
    BinReader r;
    r.in = w.out;
    ControlTallies back;
    visitFields(back, r);
    ASSERT_TRUE(r.ok) << r.err;
    EXPECT_EQ(r.pos, w.out.size());
    EXPECT_EQ(back.retunes, t.retunes);
    EXPECT_EQ(back.freqBoosts, t.freqBoosts);
    EXPECT_EQ(back.freqDrops, t.freqDrops);
    EXPECT_EQ(back.wayGrants, t.wayGrants);
    EXPECT_EQ(back.wayReturns, t.wayReturns);
    EXPECT_EQ(back.bwGrants, t.bwGrants);
    EXPECT_EQ(back.bwReturns, t.bwReturns);
}

} // namespace
} // namespace cmpqos
