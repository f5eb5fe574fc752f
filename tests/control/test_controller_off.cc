/**
 * @file
 * Controller-off equivalence: with the feedback controller disabled
 * (the default), the cluster engine must produce output byte-identical
 * to the pre-controller codebase. The fingerprints and the telemetry
 * golden below were captured at the commit immediately before the
 * control layer landed; these tests pin that adding the layer is
 * invisible until it is switched on — in metrics fingerprints, in
 * JSONL/CSV exports, and in the delivered event stream — at 1, 2 and
 * 4 worker threads.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cluster/engine.hh"
#include "telemetry/collector.hh"

namespace cmpqos
{
namespace
{

/** Fingerprint of the default 8-node/96-job/seed-42 configuration,
 *  captured before the control layer existed. */
const char *const bigGolden =
    "seed=42 submitted=96 accepted=96 rejected=0 negotiated=1 "
    "truncated=0 tiers=47/31/18 vt=50650011 instr=192000000 "
    "completed=96 stolen=0 strict=47:47 elastic=31:31 "
    "opportunistic=18:18 n0=15:15:0:30000000:0:46417123 "
    "n1=14:14:0:28000000:0:46625722 n2=13:13:0:26000000:0:46524300 "
    "n3=12:12:0:24000000:0:49325600 n4=10:10:0:20000000:0:47058900 "
    "n5=13:13:0:26000000:0:48829426 n6=10:10:0:20000000:0:48361462 "
    "n7=9:9:0:18000000:0:50650011";

/** Fingerprint of the fast 4-node/24-job/seed-11 configuration the
 *  telemetry capture tests use, captured at the same commit. */
const char *const fastGolden =
    "seed=11 submitted=24 accepted=24 rejected=0 negotiated=4 "
    "truncated=0 tiers=11/9/4 vt=7766601 instr=9600000 completed=24 "
    "stolen=0 strict=11:11 elastic=9:9 opportunistic=4:4 "
    "n0=6:6:0:2400000:0:7766601 n1=6:6:0:2400000:0:6757422 "
    "n2=6:6:0:2400000:0:5461802 n3=6:6:0:2400000:0:6698721";

ClusterConfig
bigCluster(unsigned threads)
{
    ClusterConfig c;
    c.nodes = 8;
    c.threads = threads;
    c.seed = 42;
    return c;
}

ClusterConfig
fastCluster(unsigned threads)
{
    ClusterConfig c;
    c.nodes = 4;
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

std::string
runBig(unsigned threads)
{
    ClusterConfig c = bigCluster(threads);
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 2'000'000;
    PoissonArrivalProcess stream(500'000.0, mix, c.seed ^ 0xa11a1ULL,
                                 96);
    ClusterEngine engine(c);
    return engine.runToCompletion(stream).fingerprint();
}

struct FastRun
{
    ClusterMetrics metrics;
    std::string trace;
};

FastRun
runFastTraced(unsigned threads)
{
    PoissonArrivalProcess arrivals(150'000.0, fastMix(), 123, 24);
    ClusterConfig c = fastCluster(threads);
    TelemetryConfig tc;
    tc.ringCapacity = 1u << 15;
    TraceCollector collector(c.nodes + 1, tc);
    std::ostringstream os;
    JsonlTraceSink sink(os);
    collector.addSink(&sink);
    c.telemetry = &collector;

    ClusterEngine engine(c);
    FastRun run;
    run.metrics = engine.runToCompletion(arrivals);
    collector.finish(c.seed, engine.numThreads(),
                     run.metrics.wallSeconds);
    run.trace = os.str();
    return run;
}

/** The capture minus its final line (the host-side meta trailer). */
std::string
eventLines(const std::string &jsonl)
{
    const std::size_t last =
        jsonl.rfind('\n', jsonl.size() >= 2 ? jsonl.size() - 2
                                            : std::string::npos);
    return last == std::string::npos ? std::string()
                                     : jsonl.substr(0, last + 1);
}

TEST(ControllerOff, BigFingerprintMatchesPreControllerGolden)
{
    EXPECT_EQ(runBig(1), bigGolden);
    EXPECT_EQ(runBig(2), bigGolden);
    EXPECT_EQ(runBig(4), bigGolden);
}

TEST(ControllerOff, FastFingerprintMatchesPreControllerGolden)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        const FastRun run = runFastTraced(threads);
        EXPECT_EQ(run.metrics.fingerprint(), fastGolden)
            << threads << " threads";
        EXPECT_FALSE(run.metrics.controllerOn);
        EXPECT_EQ(run.metrics.energy, 0.0);
        EXPECT_EQ(run.metrics.control.retunes, 0u);
    }
}

TEST(ControllerOff, ExportsCarryNoControllerFields)
{
    const FastRun run = runFastTraced(1);
    std::ostringstream jsonl, csv;
    MetricsExporter::writeJsonl(run.metrics, jsonl);
    MetricsExporter::writeCsv(run.metrics, csv);
    EXPECT_EQ(jsonl.str().find("controller"), std::string::npos);
    EXPECT_EQ(jsonl.str().find("energy"), std::string::npos);
    EXPECT_EQ(csv.str().find("energy"), std::string::npos);
    EXPECT_EQ(csv.str().find("retunes"), std::string::npos);
}

TEST(ControllerOff, TraceStreamMatchesPreControllerGolden)
{
    std::ifstream in(std::string(CMPQOS_CONTROL_GOLDEN_DIR) +
                     "/trace_off_t1.jsonl");
    ASSERT_TRUE(in) << "golden trace missing";
    std::ostringstream golden;
    golden << in.rdbuf();
    for (const unsigned threads : {1u, 2u, 4u}) {
        const FastRun run = runFastTraced(threads);
        EXPECT_EQ(eventLines(run.trace), golden.str())
            << threads << " threads";
    }
}

} // namespace
} // namespace cmpqos
