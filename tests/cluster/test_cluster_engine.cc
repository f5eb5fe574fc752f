/**
 * @file
 * Tests for the parallel cluster engine, headlined by the determinism
 * guarantee: the same seed must produce identical admission decisions
 * and final metrics at ANY worker thread count.
 *
 * The Gac and CmpServer suites pin Section 3.1's global admission
 * through the engine: trace arrivals go in, a recording observer
 * reads each placement back out (node, offered slot, negotiated
 * deadline), and the CmpServer cases also check that every placed
 * job ran and met the deadline it was granted.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/engine.hh"
#include "fault/plan.hh"

namespace cmpqos
{
namespace
{

ClusterConfig
fastCluster(int nodes, unsigned threads)
{
    ClusterConfig c;
    c.nodes = nodes;
    c.threads = threads;
    c.quantum = 500'000;
    c.seed = 11;
    c.node.cmp.chunkInstructions = 20'000;
    return c;
}

ArrivalMix
fastMix()
{
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 400'000;
    return mix;
}

ClusterMetrics
runCluster(unsigned threads, std::uint64_t jobs = 24)
{
    PoissonArrivalProcess arrivals(150'000.0, fastMix(), 123, jobs);
    ClusterEngine engine(fastCluster(4, threads));
    return engine.runToCompletion(arrivals);
}

TEST(ClusterEngine, DeterministicAcrossThreadCounts)
{
    // The core guarantee (and this PR's acceptance criterion): one
    // seed, identical aggregates at 1, 2 and 4 worker threads.
    const ClusterMetrics m1 = runCluster(1);
    const ClusterMetrics m2 = runCluster(2);
    const ClusterMetrics m4 = runCluster(4);
    EXPECT_GT(m1.submitted, 0u);
    EXPECT_EQ(m1.fingerprint(), m2.fingerprint());
    EXPECT_EQ(m1.fingerprint(), m4.fingerprint());
    // Thread count is run identity, not simulation state.
    EXPECT_EQ(m1.threads, 1u);
    EXPECT_EQ(m4.threads, 4u);
}

TEST(ClusterEngine, RunToCompletionDrainsEveryNode)
{
    const ClusterMetrics m = runCluster(2);
    EXPECT_EQ(m.submitted, 24u);
    EXPECT_EQ(m.accepted + m.rejected, m.submitted);
    EXPECT_EQ(m.completed, m.accepted);
    EXPECT_EQ(m.truncated, 0u);
    ASSERT_EQ(m.nodes.size(), 4u);
    std::uint64_t placed = 0;
    for (const NodeMetrics &n : m.nodes) {
        EXPECT_EQ(n.inFlight, 0u);
        EXPECT_EQ(n.completed, n.placed);
        placed += n.placed;
    }
    EXPECT_EQ(placed, m.accepted);
}

TEST(ClusterEngine, AcceptedByTierSumsToAccepted)
{
    const ClusterMetrics m = runCluster(2, 40);
    std::uint64_t byTier = 0;
    for (std::uint64_t c : m.acceptedByTier)
        byTier += c;
    EXPECT_EQ(byTier, m.accepted);
}

TEST(ClusterEngine, RunForDurationTruncatesOpenLoopStream)
{
    // Infinite stream + finite horizon: the run stops at the horizon
    // with work still in flight and the overrun arrival truncated.
    PoissonArrivalProcess arrivals(200'000.0, fastMix(), 5, 0);
    ClusterEngine engine(fastCluster(2, 2));
    const ClusterMetrics m =
        engine.runForDuration(arrivals, 2'000'000);
    EXPECT_GT(m.submitted, 0u);
    EXPECT_EQ(m.truncated, 1u);
    for (const NodeMetrics &n : m.nodes)
        EXPECT_GE(n.virtualTime, 2'000'000u);
}

TEST(ClusterEngine, LeastLoadedSpreadsJobsAcrossNodes)
{
    const ClusterMetrics m = runCluster(1, 32);
    int used = 0;
    for (const NodeMetrics &n : m.nodes)
        used += n.placed > 0;
    // 32 near-simultaneous jobs over 4 nodes: least-loaded placement
    // must not pile everything on one node.
    EXPECT_GE(used, 3);
}

TEST(ClusterEngine, TraceArrivalsPlaceDeterministically)
{
    const char *trace = "0 bzip2 gold\n"
                        "100000 hmmer silver\n"
                        "200000 gobmk bronze\n"
                        "900000 bzip2 gold\n";
    ClusterMetrics runs[2];
    for (int i = 0; i < 2; ++i) {
        std::istringstream in(trace);
        TraceArrivalProcess arrivals(in, fastMix(), "test");
        ClusterEngine engine(fastCluster(2, i == 0 ? 1 : 2));
        runs[i] = engine.runToCompletion(arrivals);
    }
    EXPECT_EQ(runs[0].submitted, 4u);
    EXPECT_EQ(runs[0].fingerprint(), runs[1].fingerprint());
}

TEST(ClusterEngine, NegotiationRecoversOverloadArrivals)
{
    // One tiny node and a burst of simultaneous Gold jobs: without
    // negotiation some are rejected outright; with it, relaxed
    // deadlines recover placements.
    ClusterConfig base = fastCluster(1, 1);
    ArrivalMix mix = fastMix();
    mix.tiers[1].weight = 0.0; // all Gold
    mix.tiers[2].weight = 0.0;
    mix.tiers[0].weight = 1.0;

    base.negotiate = false;
    PoissonArrivalProcess a1(10'000.0, mix, 9, 12);
    ClusterEngine strictEngine(base);
    const ClusterMetrics without = strictEngine.runToCompletion(a1);

    base.negotiate = true;
    PoissonArrivalProcess a2(10'000.0, mix, 9, 12);
    ClusterEngine negotiatingEngine(base);
    const ClusterMetrics with = negotiatingEngine.runToCompletion(a2);

    EXPECT_GT(without.rejected, 0u);
    EXPECT_GT(with.negotiated, 0u);
    EXPECT_GT(with.accepted, without.accepted);
}

TEST(ClusterEngine, NodeSeedsDeriveFromClusterSeed)
{
    ClusterConfig a = fastCluster(2, 1);
    ClusterConfig b = fastCluster(2, 1);
    b.seed = 1234;
    ClusterEngine ea(a), eb(b);
    EXPECT_NE(ea.node(0).framework().config().seed,
              eb.node(0).framework().config().seed);
    // Distinct streams per node within one cluster.
    EXPECT_NE(ea.node(0).framework().config().seed,
              ea.node(1).framework().config().seed);
}

/** Every placement the engine reports, in submission order. */
class PlacementLog : public EngineObserver
{
  public:
    void
    onPlacement(const ClusterArrival &, const PlacementOutcome &o) override
    {
        outcomes.push_back(o);
    }

    std::vector<PlacementOutcome> outcomes;
};

/**
 * "Medium" RUM targets (1 core, 7 of 16 ways, Strict) whose tier is
 * the deadline class: gold tight (1.05 tw), silver moderate (2 tw),
 * bronze relaxed (3 tw).
 */
ArrivalMix
rumMix()
{
    ArrivalMix mix = fastMix();
    const double deadlines[] = {1.05, 2.0, 3.0};
    for (std::size_t t = 0; t < numQosTiers; ++t)
        mix.tiers[t] = TierSpec{ModeSpec::strict(), deadlines[t], 7, 1.0};
    return mix;
}

/** A single-threaded cluster placing under @p policy. */
ClusterConfig
gacCluster(int nodes, GacPolicy policy, bool negotiate)
{
    ClusterConfig c = fastCluster(nodes, 1);
    c.policy = policy;
    c.negotiate = negotiate;
    return c;
}

struct Admitted
{
    ClusterMetrics metrics;
    std::vector<PlacementOutcome> placements;

    /** Accepting node of each arrival (-1 when rejected). */
    std::vector<NodeId>
    nodes() const
    {
        std::vector<NodeId> out;
        for (const PlacementOutcome &o : placements)
            out.push_back(o.node);
        return out;
    }

    /** Every completed reserved job met its (granted) deadline. */
    bool
    reservedDeadlinesMet() const
    {
        for (ExecutionMode m :
             {ExecutionMode::Strict, ExecutionMode::Elastic}) {
            const ModeTally &t =
                metrics.byMode[static_cast<std::size_t>(m)];
            if (t.deadlineHits != t.completed)
                return false;
        }
        return true;
    }
};

/** Run @p trace to completion, recording every placement. */
Admitted
admit(ClusterConfig config, const std::string &trace,
      const ArrivalMix &mix = rumMix())
{
    PlacementLog log;
    config.observer = &log;
    std::istringstream in(trace);
    TraceArrivalProcess arrivals(in, mix, "test");
    ClusterEngine engine(config);
    Admitted a;
    a.metrics = engine.runToCompletion(arrivals);
    a.placements = log.outcomes;
    return a;
}

/** @p n copies of "0 <bench> <tier>": one batch submitted at once. */
std::string
batch(int n, const std::string &bench, const std::string &tier)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += "0 " + bench + " " + tier + "\n";
    return out;
}

using Nodes = std::vector<NodeId>;

TEST(Gac, FirstFitPicksFirstAvailableNode)
{
    const Admitted a = admit(gacCluster(2, GacPolicy::FirstFit, false),
                             batch(1, "bzip2", "silver"));
    ASSERT_EQ(a.placements.size(), 1u);
    EXPECT_TRUE(a.placements[0].accepted);
    EXPECT_EQ(a.placements[0].node, 0);
    EXPECT_EQ(a.metrics.nodes[0].placed, 1u);
    EXPECT_EQ(a.metrics.nodes[1].placed, 0u);
}

TEST(Gac, OverflowsToSecondNode)
{
    // Two 7-way tight jobs fill node 0's QoS ways; the third cannot
    // start there before its deadline, but can on node 1.
    const Admitted a = admit(gacCluster(2, GacPolicy::FirstFit, false),
                             batch(3, "bzip2", "gold"));
    EXPECT_EQ(a.nodes(), (Nodes{0, 0, 1}));
}

TEST(Gac, RejectsWhenNoNodeFits)
{
    const Admitted a = admit(gacCluster(1, GacPolicy::FirstFit, false),
                             batch(3, "bzip2", "gold"));
    EXPECT_EQ(a.nodes(), (Nodes{0, 0, -1}));
    EXPECT_FALSE(a.placements[2].accepted);
    EXPECT_EQ(a.metrics.accepted, 2u);
    EXPECT_EQ(a.metrics.rejected, 1u);
    EXPECT_EQ(a.metrics.nodes[0].placed, 2u);
}

TEST(Gac, EarliestSlotPolicyBalances)
{
    // Two jobs fill node 0's ways; a third with a relaxed deadline
    // would queue behind them there, but starts at once on node 1.
    const std::string three = batch(3, "bzip2", "bronze");
    const Admitted a =
        admit(gacCluster(2, GacPolicy::EarliestSlot, false), three);
    EXPECT_EQ(a.nodes(), (Nodes{0, 0, 1}));
    EXPECT_EQ(a.placements[2].slotStart, 0u);
    // FirstFit takes node 0's later slot instead.
    const Admitted ff =
        admit(gacCluster(2, GacPolicy::FirstFit, false), three);
    EXPECT_EQ(ff.nodes(), (Nodes{0, 0, 0}));
    EXPECT_GT(ff.placements[2].slotStart, 0u);
}

TEST(Gac, NegotiateFindsRelaxedDeadline)
{
    // A tight job cannot fit now, but relaxing its deadline lets it
    // start once the first two are done: it needs at least 2 tw.
    const Admitted a = admit(gacCluster(1, GacPolicy::FirstFit, true),
                             batch(2, "bzip2", "bronze") +
                                 batch(1, "bzip2", "gold"));
    ASSERT_EQ(a.placements.size(), 3u);
    const PlacementOutcome &o = a.placements[2];
    EXPECT_TRUE(o.accepted);
    EXPECT_TRUE(o.negotiated);
    EXPECT_GE(o.deadlineFactor, 2.0);
    EXPECT_LE(o.deadlineFactor, 4.0 * 1.05);
    EXPECT_GT(o.slotStart, 0u);
    EXPECT_EQ(a.metrics.negotiated, 1u);
}

TEST(Gac, NegotiateGivesUpBeyondMaxFactor)
{
    // The node's LAC manages 6 ways: a 7-way job never fits, however
    // far its deadline is relaxed.
    ClusterConfig c = gacCluster(1, GacPolicy::FirstFit, true);
    c.node.admission.capacity.ways = 6;
    const Admitted a = admit(c, batch(1, "bzip2", "gold"));
    ASSERT_EQ(a.placements.size(), 1u);
    EXPECT_FALSE(a.placements[0].accepted);
    EXPECT_FALSE(a.placements[0].negotiated);
    EXPECT_EQ(a.metrics.rejected, 1u);
    EXPECT_EQ(a.metrics.negotiated, 0u);
}

TEST(Gac, PolicyNames)
{
    EXPECT_STREQ(gacPolicyName(GacPolicy::FirstFit), "first-fit");
    EXPECT_STREQ(gacPolicyName(GacPolicy::EarliestSlot),
                 "earliest-slot");
    EXPECT_STREQ(gacPolicyName(GacPolicy::LeastLoaded),
                 "least-loaded");
    for (GacPolicy p : {GacPolicy::FirstFit, GacPolicy::EarliestSlot,
                        GacPolicy::LeastLoaded}) {
        GacPolicy back = p == GacPolicy::FirstFit
                             ? GacPolicy::LeastLoaded
                             : GacPolicy::FirstFit;
        ASSERT_TRUE(parseGacPolicy(gacPolicyName(p), back))
            << gacPolicyName(p);
        EXPECT_EQ(back, p);
    }
    GacPolicy untouched = GacPolicy::EarliestSlot;
    EXPECT_FALSE(parseGacPolicy("round-robin", untouched));
    EXPECT_FALSE(parseGacPolicy("", untouched));
    EXPECT_EQ(untouched, GacPolicy::EarliestSlot);
}

TEST(Gac, LeastLoadedTieBreaksToLowestNodeId)
{
    // Both nodes equally idle: the lowest id wins deterministically.
    const Admitted a =
        admit(gacCluster(2, GacPolicy::LeastLoaded, false),
              batch(1, "bzip2", "bronze"));
    EXPECT_EQ(a.nodes(), (Nodes{0}));
}

TEST(Gac, LeastLoadedAvoidsBusyNode)
{
    // Node 0 holds a job after the first placement, so the second
    // goes to idle node 1; both then hold one: back to the tie-break.
    const Admitted a =
        admit(gacCluster(2, GacPolicy::LeastLoaded, false),
              batch(3, "bzip2", "bronze"));
    EXPECT_EQ(a.nodes(), (Nodes{0, 1, 0}));
}

TEST(Gac, LeastLoadedTieBreaksOnReservedWays)
{
    // Same load on both nodes after two placements, but node 1's
    // reservation pins 2 ways to node 0's 7: node 1 is less loaded.
    ArrivalMix mix = rumMix();
    mix.tiers[static_cast<std::size_t>(QosTier::Silver)].ways = 2;
    const Admitted a =
        admit(gacCluster(2, GacPolicy::LeastLoaded, false),
              "0 bzip2 gold\n0 bzip2 silver\n0 bzip2 bronze\n", mix);
    EXPECT_EQ(a.nodes(), (Nodes{0, 1, 1}));
}

TEST(Gac, ProbeCounting)
{
    // Node 0's probe times out twice before it answers: within the
    // 3-retry budget, so the job still lands there, and the retries
    // back off 10k then 20k cycles.
    FaultPlan plan;
    plan.faults.push_back({FaultType::ProbeTimeout, 0, 0, 1, 2, 0});
    ClusterConfig c = gacCluster(2, GacPolicy::FirstFit, false);
    c.faultPlan = &plan;
    const Admitted a = admit(c, batch(1, "bzip2", "silver"));
    EXPECT_EQ(a.nodes(), (Nodes{0}));
    EXPECT_EQ(a.metrics.faults.probeRetries, 2u);
    EXPECT_EQ(a.metrics.faults.probeTimeouts, 0u);
    EXPECT_EQ(a.metrics.faults.backoffCycles, 30'000u);
}

TEST(CmpServer, FirstFitFillsNodeZeroFirst)
{
    // Two 7-way jobs fit on node 0 concurrently; a third tight job
    // overflows to node 1, and all three then run.
    const Admitted a = admit(gacCluster(2, GacPolicy::FirstFit, false),
                             batch(3, "gobmk", "gold"));
    EXPECT_EQ(a.nodes(), (Nodes{0, 0, 1}));
    EXPECT_EQ(a.metrics.nodes[0].placed, 2u);
    EXPECT_EQ(a.metrics.nodes[1].placed, 1u);
    EXPECT_EQ(a.metrics.completed, 3u);
    EXPECT_TRUE(a.reservedDeadlinesMet());
}

TEST(CmpServer, EarliestSlotBalances)
{
    // With relaxed deadlines node 0 would queue job 3; EarliestSlot
    // sends it to node 1, where it can start at once.
    const Admitted a =
        admit(gacCluster(2, GacPolicy::EarliestSlot, false),
              batch(3, "gobmk", "bronze"));
    EXPECT_EQ(a.placements[2].node, 1);
    EXPECT_EQ(a.placements[2].slotStart, 0u);
    EXPECT_TRUE(a.reservedDeadlinesMet());
}

TEST(CmpServer, RejectsWhenEveryNodeIsFull)
{
    // Four tight jobs commit both nodes' QoS ways; the fifth fails.
    const Admitted a = admit(gacCluster(2, GacPolicy::FirstFit, false),
                             batch(5, "gobmk", "gold"));
    EXPECT_EQ(a.metrics.accepted, 4u);
    EXPECT_EQ(a.metrics.rejected, 1u);
    EXPECT_FALSE(a.placements[4].accepted);
    EXPECT_EQ(a.metrics.completed, 4u);
    EXPECT_TRUE(a.reservedDeadlinesMet());
}

TEST(CmpServer, ExecutionMeetsDeadlinesOnEveryNode)
{
    const Admitted a =
        admit(gacCluster(3, GacPolicy::EarliestSlot, false),
              "0 bzip2 silver\n0 gobmk silver\n0 hmmer silver\n"
              "0 bzip2 silver\n0 gobmk silver\n0 hmmer silver\n");
    EXPECT_EQ(a.metrics.accepted, 6u);
    EXPECT_EQ(a.metrics.completed, 6u);
    EXPECT_TRUE(a.reservedDeadlinesMet());
    for (const NodeMetrics &n : a.metrics.nodes)
        EXPECT_GT(n.placed, 0u) << "node " << n.node;
}

TEST(CmpServer, MixedModesAcrossNodes)
{
    ArrivalMix mix = fastMix();
    mix.tiers[static_cast<std::size_t>(QosTier::Gold)] =
        TierSpec{ModeSpec::strict(), 2.0, 7, 1.0};
    mix.tiers[static_cast<std::size_t>(QosTier::Silver)] =
        TierSpec{ModeSpec::elastic(0.05), 2.0, 7, 1.0};
    mix.tiers[static_cast<std::size_t>(QosTier::Bronze)] =
        TierSpec{ModeSpec::opportunistic(), 6.0, 7, 1.0};
    const Admitted a = admit(gacCluster(2, GacPolicy::FirstFit, false),
                             "0 hmmer gold\n0 gobmk silver\n"
                             "0 bzip2 bronze\n",
                             mix);
    EXPECT_EQ(a.metrics.accepted, 3u);
    EXPECT_EQ(a.metrics.completed, 3u);
    for (ExecutionMode m :
         {ExecutionMode::Strict, ExecutionMode::Elastic,
          ExecutionMode::Opportunistic})
        EXPECT_EQ(a.metrics.byMode[static_cast<std::size_t>(m)].completed,
                  1u);
    EXPECT_TRUE(a.reservedDeadlinesMet());
}

TEST(CmpServer, LeastLoadedAlternatesAcrossIdleNodes)
{
    // Ties break to the lowest node id; each placement then makes
    // that node the busier one, so four jobs alternate 0,1,0,1.
    const Admitted a =
        admit(gacCluster(2, GacPolicy::LeastLoaded, false),
              batch(4, "gobmk", "bronze"));
    EXPECT_EQ(a.nodes(), (Nodes{0, 1, 0, 1}));
    EXPECT_EQ(a.metrics.nodes[0].placed, 2u);
    EXPECT_EQ(a.metrics.nodes[1].placed, 2u);
    EXPECT_TRUE(a.reservedDeadlinesMet());
}

TEST(CmpServer, SubmitNegotiatedPassesThroughWhenJobFits)
{
    const Admitted a = admit(gacCluster(1, GacPolicy::FirstFit, true),
                             batch(1, "gobmk", "gold"));
    ASSERT_EQ(a.placements.size(), 1u);
    EXPECT_TRUE(a.placements[0].accepted);
    EXPECT_FALSE(a.placements[0].negotiated);
    EXPECT_DOUBLE_EQ(a.placements[0].deadlineFactor, 1.05);
    EXPECT_EQ(a.metrics.negotiated, 0u);
}

TEST(CmpServer, SubmitNegotiatedRelaxesDeadlineWhenAllNodesReject)
{
    // Two 7-way jobs commit the node's QoS ways: a third tight job is
    // rejected outright...
    const std::string three = batch(3, "gobmk", "gold");
    const Admitted strict =
        admit(gacCluster(1, GacPolicy::FirstFit, false), three);
    EXPECT_EQ(strict.metrics.accepted, 2u);
    EXPECT_EQ(strict.metrics.rejected, 1u);
    // ...but accepted once the user agrees to a relaxed deadline, and
    // it then counts once, as accepted, not as rejected.
    const Admitted relaxed =
        admit(gacCluster(1, GacPolicy::FirstFit, true), three);
    EXPECT_FALSE(relaxed.placements[1].negotiated);
    EXPECT_TRUE(relaxed.placements[2].negotiated);
    EXPECT_GT(relaxed.placements[2].deadlineFactor, 1.05);
    EXPECT_EQ(relaxed.metrics.accepted, 3u);
    EXPECT_EQ(relaxed.metrics.negotiated, 1u);
    EXPECT_EQ(relaxed.metrics.rejected, 0u);
    EXPECT_EQ(relaxed.metrics.completed, 3u);
    EXPECT_TRUE(relaxed.reservedDeadlinesMet());
}

TEST(CmpServer, SubmitNegotiatedStillRejectsImpossibleRequests)
{
    // Neither node's LAC manages 7 ways, at any deadline.
    ClusterConfig c = gacCluster(2, GacPolicy::FirstFit, true);
    c.node.admission.capacity.ways = 6;
    const Admitted a = admit(c, batch(1, "gobmk", "gold"));
    EXPECT_FALSE(a.placements[0].accepted);
    EXPECT_FALSE(a.placements[0].negotiated);
    EXPECT_EQ(a.metrics.rejected, 1u);
    EXPECT_EQ(a.metrics.negotiated, 0u);
}

TEST(CmpServer, ProbeCountsAccumulate)
{
    // Probe faults are charged per placement: node 1 times out once
    // for each of the two arrivals (two retries, 10k cycles of
    // backoff each), while node 2's four timeouts exceed the 3-retry
    // budget and it is skipped both times.
    FaultPlan plan;
    plan.faults.push_back({FaultType::ProbeTimeout, 1, 0, 1, 1, 0});
    plan.faults.push_back({FaultType::ProbeTimeout, 2, 0, 1, 4, 0});
    ClusterConfig c = gacCluster(3, GacPolicy::LeastLoaded, false);
    c.faultPlan = &plan;
    const Admitted a = admit(c, batch(2, "gobmk", "bronze"));
    EXPECT_EQ(a.nodes(), (Nodes{0, 1}));
    EXPECT_EQ(a.metrics.faults.probeRetries, 2u);
    EXPECT_EQ(a.metrics.faults.backoffCycles, 20'000u);
    EXPECT_EQ(a.metrics.faults.probeTimeouts, 2u);
}

} // namespace
} // namespace cmpqos
