/**
 * @file
 * Determinism suite for the federated engine. The contract extends
 * the thread-count guarantee one axis: engine metrics AND telemetry
 * fingerprints must be byte-identical across any shard count x any
 * thread count on either transport, a node-fault plan must perturb a
 * federated run exactly as it perturbs the single-process engine,
 * and link-fault chaos (drop/dup/delay/partition, seeded) must stay
 * deterministic for a fixed topology with the invariant oracle green.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/engine.hh"
#include "fault/plan.hh"
#include "federation/federated_engine.hh"
#include "telemetry/collector.hh"

namespace cmpqos
{
namespace
{

constexpr int kNodes = 4;
constexpr std::uint64_t kJobs = 24;

ClusterConfig
fastCluster(unsigned threads)
{
    ClusterConfig c;
    c.nodes = kNodes;
    c.threads = threads;
    c.quantum = 500'000;
    c.seed = 11;
    c.node.cmp.chunkInstructions = 20'000;
    return c;
}

PoissonArrivalProcess
makeArrivals()
{
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 400'000;
    return PoissonArrivalProcess(150'000.0, mix, 123, kJobs);
}

struct EngineRun
{
    ClusterMetrics metrics;
    std::string trace;
    std::uint64_t violations = 0;
};

/** The capture minus its final line (the host-side meta trailer). */
std::string
eventLines(const std::string &jsonl)
{
    const std::size_t last = jsonl.rfind("{\"ev\":\"meta\"");
    return last == std::string::npos ? jsonl : jsonl.substr(0, last);
}

/** What a run varies beyond its topology. */
struct RunOptions
{
    const FaultPlan *plan = nullptr;
    /** 0 drains the cluster (runToCompletion), else runForDuration. */
    Cycle duration = 0;
    bool control = false;
    EngineObserver *observer = nullptr;
};

/** One run's config, arrival stream and JSONL telemetry capture. */
struct RunSetup
{
    RunSetup(unsigned threads, const RunOptions &opt)
        : options(opt), config(fastCluster(threads)), sink(trace),
          collector(kNodes + 1, TelemetryConfig{})
    {
        config.faultPlan = opt.plan;
        config.checkInvariants = true;
        config.control.enabled = opt.control;
        config.observer = opt.observer;
        collector.addSink(&sink);
        config.telemetry = &collector;
    }

    template <typename Engine>
    EngineRun
    drive(Engine &engine)
    {
        EngineRun run;
        run.metrics = options.duration == 0
                          ? engine.runToCompletion(arrivals)
                          : engine.runForDuration(arrivals,
                                                  options.duration);
        collector.finish(config.seed, engine.numThreads(),
                         run.metrics.wallSeconds);
        run.trace = trace.str();
        return run;
    }

    RunOptions options;
    ClusterConfig config;
    std::ostringstream trace;
    JsonlTraceSink sink;
    TraceCollector collector;
    PoissonArrivalProcess arrivals = makeArrivals();
};

EngineRun
runSingle(unsigned threads, const RunOptions &opt = {})
{
    RunSetup setup(threads, opt);
    ClusterEngine engine(setup.config);
    EngineRun run = setup.drive(engine);
    run.violations = engine.invariantChecker()->totalViolations();
    return run;
}

EngineRun
runFederated(int shards, unsigned threads, FedTransport transport,
             const RunOptions &opt = {})
{
    RunSetup setup(threads, opt);
    FederationConfig fed;
    fed.shards = shards;
    fed.transport = transport;
    FederatedEngine engine(setup.config, fed);
    EngineRun run = setup.drive(engine);
    run.violations = engine.invariantViolations();
    return run;
}

TEST(Federation, ByteIdenticalAcrossShardAndThreadMatrix)
{
    // The acceptance matrix: {1,2,4} shards x {1,2,4} threads on
    // both transports, every cell compared byte-for-byte -- metrics
    // fingerprint AND telemetry stream -- against the single-process
    // single-thread baseline.
    const EngineRun base = runSingle(1);
    const std::string base_fp = base.metrics.fingerprint();
    const std::string base_trace = eventLines(base.trace);
    ASSERT_FALSE(base_fp.empty());

    for (int shards : {1, 2, 4}) {
        for (unsigned threads : {1u, 2u, 4u}) {
            for (FedTransport transport :
                 {FedTransport::Inproc, FedTransport::Uds}) {
                const EngineRun r =
                    runFederated(shards, threads, transport);
                const std::string context =
                    std::to_string(shards) + " shards x " +
                    std::to_string(threads) + " threads over " +
                    fedTransportName(transport);
                EXPECT_EQ(r.metrics.fingerprint(), base_fp)
                    << context;
                EXPECT_EQ(eventLines(r.trace), base_trace) << context;
                EXPECT_EQ(r.violations, 0u) << context;
                EXPECT_EQ(r.metrics.shards, shards) << context;
            }
        }
    }
}

TEST(Federation, NodeFaultPlanMatchesSingleProcess)
{
    // A node-fault plan (no link faults) must perturb the federated
    // run exactly as it perturbs the single-process engine: the
    // crash/relocate/restart accounting crosses shard protocol paths
    // (FedCrashReport, FedRelocFail) yet lands on the same tallies.
    const FaultPlan plan = FaultPlan::random(17, kNodes, 8, 6);
    const EngineRun base = runSingle(2, {.plan = &plan});
    for (int shards : {2, 4}) {
        const EngineRun r =
            runFederated(shards, 2, FedTransport::Inproc, {.plan = &plan});
        const std::string context =
            "plan: " + plan.summary() + " at " +
            std::to_string(shards) + " shards";
        EXPECT_EQ(r.metrics.fingerprint(),
                  base.metrics.fingerprint())
            << context;
        EXPECT_EQ(eventLines(r.trace), eventLines(base.trace))
            << context;
        EXPECT_EQ(r.violations, 0u) << context;
    }
}

TEST(RelocationFailure, CountedOnBothBackends)
{
    // Both nodes crash at the same barrier while each still holds
    // reserved jobs waiting for their slots. Relocation finds no
    // alive node, so those jobs fail as a distinct outcome -- counted
    // on the origin node, through FedRelocFail when federated.
    FaultPlan plan;
    plan.faults.push_back({FaultType::NodeCrash, 0, 1, 1, 1, 0});
    plan.faults.push_back({FaultType::NodeCrash, 1, 1, 1, 1, 0});
    ClusterConfig c = fastCluster(1);
    c.nodes = 2;
    c.faultPlan = &plan;
    c.checkInvariants = true;
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 2'000'000;
    mix.tiers[static_cast<std::size_t>(QosTier::Gold)].deadlineFactor =
        6.0;
    std::string batch;
    for (int i = 0; i < 8; ++i)
        batch += "0 bzip2 gold\n";
    const auto run = [&](ClusterEngine &engine) {
        std::istringstream in(batch);
        TraceArrivalProcess arrivals(in, mix, "batch");
        return engine.runToCompletion(arrivals);
    };

    ClusterEngine single(c);
    const ClusterMetrics m = run(single);
    EXPECT_EQ(m.accepted, 8u);
    EXPECT_GT(m.faults.relocationRejected, 0u);
    EXPECT_GE(m.faults.failedJobs, m.faults.relocationRejected);
    EXPECT_EQ(m.completed + m.faults.failedJobs, m.accepted);
    EXPECT_EQ(single.invariantViolations(), 0u);

    FederationConfig fed;
    fed.shards = 2;
    FederatedEngine federated(c, fed);
    const ClusterMetrics f = run(federated);
    EXPECT_EQ(f.fingerprint(), m.fingerprint());
    EXPECT_EQ(federated.invariantViolations(), 0u);
}

TEST(Federation, ControllerOnRunForDurationMatchesSingleProcess)
{
    // Controllers step before every advance the driver issues, and the
    // driver never issues an empty one -- on either backend. Two
    // horizons cover both ways an open-loop run ends: with arrivals
    // still pending (the last barrier lands on the horizon) and after
    // the stream ran dry (one final advance up to the horizon).
    for (Cycle duration : {Cycle{2'000'000}, Cycle{8'000'000}}) {
        const RunOptions opt{.duration = duration, .control = true};
        const EngineRun base = runSingle(1, opt);
        ASSERT_GT(base.metrics.control.retunes, 0u);
        for (int shards : {1, 2, 4}) {
            for (FedTransport transport :
                 {FedTransport::Inproc, FedTransport::Uds}) {
                const EngineRun r =
                    runFederated(shards, 2, transport, opt);
                const std::string context =
                    "duration " + std::to_string(duration) + ", " +
                    std::to_string(shards) + " shards over " +
                    fedTransportName(transport);
                EXPECT_EQ(r.metrics.fingerprint(),
                          base.metrics.fingerprint())
                    << context;
                EXPECT_EQ(eventLines(r.trace), eventLines(base.trace))
                    << context;
            }
        }
    }
}

/** Every observer callback of a run, one line each. */
class RecordingObserver : public EngineObserver
{
  public:
    void
    onPlacement(const ClusterArrival &arrival,
                const PlacementOutcome &o) override
    {
        log << "place t=" << arrival.time << " seq=" << o.seq
            << " accepted=" << o.accepted
            << " negotiated=" << o.negotiated << " node=" << o.node
            << " slot=" << o.slotStart << " factor=" << std::hexfloat
            << o.deadlineFactor << std::defaultfloat << "\n";
    }

    void onQuantum(Cycle now) override { log << "quantum " << now << "\n"; }

    std::ostringstream log;
};

TEST(Federation, ObserverSeesTheSameRunOnEitherBackend)
{
    // Negotiation plus a node-fault plan: every PlacementOutcome field
    // and every onQuantum time must match between the engines.
    FaultPlan plan;
    std::istringstream is("crash 1 2\n"
                          "restart 1 4\n"
                          "probe-drop 2 1 2\n"
                          "dup-reply 3 0 4\n"
                          "slow-quantum 0 2 2 200000\n");
    std::string error;
    ASSERT_TRUE(FaultPlan::tryParse(is, plan, error)) << error;
    RecordingObserver local;
    const EngineRun base =
        runSingle(2, {.plan = &plan, .observer = &local});
    ASSERT_GT(base.metrics.negotiated, 0u);
    ASSERT_GT(base.metrics.faults.crashes, 0u);
    ASSERT_NE(local.log.str().find("slot="), std::string::npos);
    for (int shards : {1, 3}) {
        for (FedTransport transport :
             {FedTransport::Inproc, FedTransport::Uds}) {
            RecordingObserver federated;
            runFederated(shards, 2, transport,
                         {.plan = &plan, .observer = &federated});
            EXPECT_EQ(federated.log.str(), local.log.str())
                << shards << " shards over "
                << fedTransportName(transport);
        }
    }
}

TEST(Federation, EmptyPlanPerturbsNothing)
{
    // Wiring a present-but-empty plan through the injector seams must
    // leave fingerprints untouched and every link tally at zero.
    const FaultPlan empty;
    const EngineRun base = runSingle(1);
    const EngineRun r =
        runFederated(2, 2, FedTransport::Uds, {.plan = &empty});
    EXPECT_EQ(r.metrics.fingerprint(), base.metrics.fingerprint());
    EXPECT_EQ(eventLines(r.trace), eventLines(base.trace));
    EXPECT_EQ(r.metrics.faults.linkDrops, 0u);
    EXPECT_EQ(r.metrics.faults.linkDups, 0u);
    EXPECT_EQ(r.metrics.faults.linkDelayCycles, 0u);
    EXPECT_EQ(r.metrics.faults.partitionedQuanta, 0u);
    EXPECT_EQ(r.violations, 0u);
}

class FederationChaosSeeds
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FederationChaosSeeds, LinkChaosDeterministicForFixedTopology)
{
    // Link faults perturb real admission traffic, so the fingerprint
    // legitimately differs from the no-fault baseline -- but for a
    // FIXED shard topology the run must stay byte-identical across
    // thread counts and transports, with the oracle green.
    const int shards = 2;
    const FaultPlan plan =
        FaultPlan::randomFederated(GetParam(), kNodes, shards, 8, 8);
    const EngineRun r1 =
        runFederated(shards, 1, FedTransport::Inproc, {.plan = &plan});
    const EngineRun r4 =
        runFederated(shards, 4, FedTransport::Uds, {.plan = &plan});

    const std::string context = "plan: " + plan.summary();
    EXPECT_EQ(r1.metrics.fingerprint(), r4.metrics.fingerprint())
        << context;
    EXPECT_EQ(eventLines(r1.trace), eventLines(r4.trace)) << context;
    EXPECT_EQ(r1.violations, 0u)
        << context << "\nfingerprint: " << r1.metrics.fingerprint();

    // Jobs survive the chaos: accepted jobs either complete or are
    // accounted failed, never silently lost.
    EXPECT_EQ(r1.metrics.completed + r1.metrics.faults.failedJobs,
              r1.metrics.accepted)
        << context;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederationChaosSeeds,
                         ::testing::Values(3u, 29u, 101u));

TEST(Federation, PartitionHealsDeterministically)
{
    // A transient partition defers one shard's commit barriers; the
    // heal replays them in order. Topology-fixed determinism must
    // hold and the partition must be tallied.
    FaultPlan plan;
    std::istringstream is("partition 1 2 2\n"
                          "link-drop 0 1 2\n"
                          "link-dup 0 3 1\n");
    std::string error;
    ASSERT_TRUE(FaultPlan::tryParse(is, plan, error)) << error;

    const EngineRun r1 =
        runFederated(2, 1, FedTransport::Inproc, {.plan = &plan});
    const EngineRun r2 =
        runFederated(2, 4, FedTransport::Uds, {.plan = &plan});
    EXPECT_EQ(r1.metrics.fingerprint(), r2.metrics.fingerprint());
    EXPECT_EQ(eventLines(r1.trace), eventLines(r2.trace));
    EXPECT_EQ(r1.violations, 0u);
    EXPECT_GE(r1.metrics.faults.partitionedQuanta, 1u);
}

TEST(Federation, LinkFaultPlanRejectedSingleProcess)
{
    // validate(nodes, shards=0) must refuse link faults -- on the
    // single-process engine they would silently no-op.
    FaultPlan plan;
    std::istringstream is("link-drop 0 1 1\n");
    std::string error;
    ASSERT_TRUE(FaultPlan::tryParse(is, plan, error)) << error;
    EXPECT_TRUE(plan.hasLinkFaults());
    EXPECT_DEATH(plan.validate(kNodes, 0), "link");
}

} // namespace
} // namespace cmpqos
