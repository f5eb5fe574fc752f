/**
 * @file
 * The three benchmark workloads and the layer replay. Each function
 * runs one workload instance in the calling process; the runner
 * (run.py) starts a fresh process per instance so that no instance
 * inherits another's heap or solo-CPI calibration memo.
 *
 * The system is driven only from outside: the engines through an
 * ArrivalProcess wrapper and an EngineObserver, qosd through
 * QosClient over a Unix socket, and every other layer through its
 * public entry points in the replay.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/engine.hh"
#include "host.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{

enum class Workload
{
    /** Paper-static batch run on ClusterEngine: the access path. */
    BatchLong,
    /** Overloaded FederatedEngine with controller and oracle on:
     *  placement, negotiation and the shard link. */
    FedStorm,
    /** In-process qosd driven by one closed-loop QosClient:
     *  admission latency as a service user sees it. */
    QosdEpochs,
};

bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/** What one instance measured and checked. */
struct RunReport
{
    /** All output checks passed (@p error names the first that did
     *  not). Deadline misses are failures, not check failures. */
    bool correct = true;
    std::string error;
    FailureTally tally;
    /** Engine fingerprints in run order: one per run for the engine
     *  workloads, one per epoch (DrainDone) for qosd_epochs. */
    std::vector<std::string> fingerprints;
    /** Metric name -> value, in the units named in BENCHMARK.json. */
    JsonLine metrics;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok && correct) {
            correct = false;
            error = what;
        }
    }
};

/**
 * Run @p w once. @p process_start is hostSeconds() at main() entry,
 * the origin of setup_s. With @p spans non-null the run also records
 * spans and adds the run-derived per-layer metrics. @p scratch is a
 * directory for the socket and journals (relative paths are fine).
 */
RunReport runWorkload(Workload w, std::uint64_t seed,
                      double process_start, SpanLog *spans,
                      const std::string &scratch);

/**
 * Feed @p w's own arrival stream and job mix through each layer's
 * public entry points, one span per call, and report the per-layer
 * metrics that come from calls rather than from the run.
 */
RunReport runReplay(Workload w, std::uint64_t seed, SpanLog &spans,
                    const std::string &scratch);

// Shared by the workloads and the replay.

/** The arrival stream @p w is fed for @p seed, in offer order. For
 *  qosd_epochs the times are those the daemon assigns. */
std::vector<cmpqos::ClusterArrival> workloadArrivals(Workload w,
                                                     std::uint64_t seed);

/** The engine configuration @p w's nodes run under (for qosd_epochs,
 *  the daemon's epoch engine). */
cmpqos::ClusterConfig workloadClusterConfig(Workload w,
                                            std::uint64_t seed);

/** The tier translation @p w's arrivals use. */
cmpqos::ArrivalMix workloadMix(Workload w);

/** Submits per qosd epoch (the client drains after each batch). */
std::uint64_t qosdEpochSubmits();

/**
 * Compute the solo-CPI calibration memo for every benchmark and tier
 * of @p mix, as the first placements would. Run in setup so the
 * memo's cost lands in setup_s instead of the first admission.
 */
void warmCalibration(const cmpqos::ArrivalMix &mix);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
