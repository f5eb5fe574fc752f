/**
 * @file
 * End-to-end capture tests on the parallel cluster engine, pinning
 * the PR's acceptance criteria: tracing must not perturb simulation
 * determinism, and the captured event stream (everything but the
 * host-side meta trailer) must be byte-identical at any worker
 * thread count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/engine.hh"
#include "telemetry/collector.hh"

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

struct CaptureRun
{
    std::string fingerprint;
    std::string jsonl;
    std::uint64_t delivered = 0;
    std::uint64_t drops = 0;
};

CaptureRun
runTraced(unsigned threads, std::size_t ring_capacity = 1u << 15,
          bool enabled = true)
{
    PoissonArrivalProcess arrivals(150'000.0, fastMix(), 123, 24);
    ClusterConfig c = fastCluster(4, threads);
    TelemetryConfig tc;
    tc.ringCapacity = ring_capacity;
    tc.enabled = enabled;
    TraceCollector collector(c.nodes + 1, tc);
    std::ostringstream os;
    JsonlTraceSink sink(os);
    collector.addSink(&sink);
    c.telemetry = &collector;

    ClusterEngine engine(c);
    const ClusterMetrics m = engine.runToCompletion(arrivals);
    collector.finish(c.seed, engine.numThreads(), m.wallSeconds);

    CaptureRun run;
    run.fingerprint = m.fingerprint();
    run.jsonl = os.str();
    run.delivered = collector.eventsDelivered();
    run.drops = collector.totalDrops();
    return run;
}

std::string
runUntraced(unsigned threads)
{
    PoissonArrivalProcess arrivals(150'000.0, fastMix(), 123, 24);
    ClusterEngine engine(fastCluster(4, threads));
    return engine.runToCompletion(arrivals).fingerprint();
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

std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle);
         at != std::string::npos; at = haystack.find(needle, at + 1))
        ++n;
    return n;
}

TEST(TraceCapture, TracingDoesNotPerturbDeterminism)
{
    // Acceptance criterion: identical fingerprints with tracing on
    // and off, at serial and parallel thread counts.
    EXPECT_EQ(runUntraced(1), runTraced(1).fingerprint);
    EXPECT_EQ(runUntraced(2), runTraced(2).fingerprint);
}

TEST(TraceCapture, EventStreamByteIdenticalAcrossThreadCounts)
{
    // Acceptance criterion: the delivered event stream (host-side
    // meta line excluded) is byte-identical at 1, 2 and 4 workers.
    const CaptureRun r1 = runTraced(1);
    const CaptureRun r2 = runTraced(2);
    const CaptureRun r4 = runTraced(4);
    EXPECT_GT(r1.delivered, 0u);
    EXPECT_EQ(eventLines(r1.jsonl), eventLines(r2.jsonl));
    EXPECT_EQ(eventLines(r1.jsonl), eventLines(r4.jsonl));
    // The meta trailer is where the thread counts differ.
    EXPECT_NE(r1.jsonl, r4.jsonl);
}

TEST(TraceCapture, CaptureCoversTheJobLifecycle)
{
    const CaptureRun run = runTraced(2);
    // Every submitted arrival leaves a driver-side record.
    EXPECT_EQ(countOf(run.jsonl, "\"ev\":\"job-submitted\""), 24u);
    // And the lifecycle stages all appear somewhere in the capture.
    for (const char *ev :
         {"arrival-placed", "job-admitted", "job-started",
          "quantum-begin", "quantum-end", "repartition"})
        EXPECT_GT(countOf(run.jsonl,
                          "\"ev\":\"" + std::string(ev) + "\""),
                  0u)
            << ev;
    EXPECT_GT(countOf(run.jsonl, "\"ev\":\"deadline-hit\"") +
                  countOf(run.jsonl, "\"ev\":\"deadline-miss\""),
              0u);
    EXPECT_EQ(run.drops, 0u);
}

TEST(TraceCapture, RuntimeDisabledCaptureIsEmpty)
{
    const CaptureRun run = runTraced(2, 1u << 15, false);
    EXPECT_EQ(run.delivered, 0u);
    // Only the meta trailer is written.
    EXPECT_EQ(countOf(run.jsonl, "\n"), 1u);
    EXPECT_NE(run.jsonl.find("\"ev\":\"meta\""), std::string::npos);
}

TEST(TraceCapture, TinyRingsDropInsteadOfPerturbing)
{
    // Saturated rings shed events; the simulation itself must be
    // unaffected, and what IS delivered stays thread-count-invariant
    // because drops are per-ring deterministic.
    const CaptureRun tiny1 = runTraced(1, 8);
    const CaptureRun tiny4 = runTraced(4, 8);
    EXPECT_GT(tiny1.drops, 0u);
    EXPECT_EQ(tiny1.fingerprint, runUntraced(1));
    EXPECT_EQ(tiny1.drops, tiny4.drops);
    EXPECT_EQ(eventLines(tiny1.jsonl), eventLines(tiny4.jsonl));
}

} // namespace
} // namespace cmpqos
