/**
 * @file
 * Cluster metrics: per-node and cluster-wide counters aggregated from
 * the node workers after (or during) a cluster run, exportable as
 * JSONL and CSV snapshots — the accept/reject/downgrade, deadline-
 * hit-rate and utilisation measurements that serving-oriented QoS
 * work (e.g. SLO-aware cluster schedulers) reports continuously.
 *
 * The aggregate also provides a canonical fingerprint string covering
 * every simulation-determined counter (and excluding wall-clock
 * time), which the determinism tests compare across worker-thread
 * counts: same seed => same fingerprint at 1, 2, or N threads.
 */

#ifndef CMPQOS_CLUSTER_METRICS_HH
#define CMPQOS_CLUSTER_METRICS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "cluster/arrival.hh"
#include "common/types.hh"
#include "control/controller.hh"
#include "qos/mode.hh"

namespace cmpqos
{

class NodeWorker;

/** Completion counters for one execution mode. */
struct ModeTally
{
    std::uint64_t completed = 0;
    std::uint64_t deadlineHits = 0;

    /**
     * Deadline hit rate. With no completions there is no rate: the
     * result is NaN, not 1.0 — a mode that never finished a job must
     * not read as "100% of deadlines met". Exporters skip such modes;
     * printers should test hasHitRate() first.
     */
    double
    hitRate() const
    {
        return completed == 0 ? std::numeric_limits<double>::quiet_NaN()
                              : static_cast<double>(deadlineHits) /
                                    static_cast<double>(completed);
    }

    /** True when at least one job completed, so hitRate() is defined. */
    bool hasHitRate() const { return completed != 0; }
};

/** Export and wire names of the modes, indexed by ExecutionMode. */
inline constexpr const char *modeKeys[3] = {"strict", "elastic",
                                            "opportunistic"};

/**
 * What a node's frameworks have done: completions and deadline hits
 * per mode, ways stolen, instructions retired, busy core cycles and
 * the dynamic-energy work term. A crash adds the dying framework into
 * the node's carried tally; a snapshot adds the live one into a copy
 * of it.
 */
struct WorkTally
{
    std::array<ModeTally, 3> byMode; // indexed by ExecutionMode
    std::uint64_t stolenWays = 0;
    InstCount instructions = 0;
    double busyCycles = 0.0;
    double dynWork = 0.0;

    /** Add @p fw's completed jobs, every job's stolen ways and its
     *  cores' ledgers, cores in index order. */
    void add(const QosFramework &fw);
};

/** Snapshot of one node's counters: what a node reports, in process
 *  and over the shard link alike (visitFields below is its wire
 *  field list). */
struct NodeMetrics
{
    NodeId node = -1;
    Cycle virtualTime = 0;
    std::uint64_t placed = 0;
    std::uint64_t completed = 0;
    std::uint64_t inFlight = 0;
    /** Instructions retired across the node's cores. */
    InstCount instructions = 0;
    /** Core-busy fraction of (cores x virtual time). */
    double utilisation = 0.0;
    /** Cache ways stolen for Elastic jobs (Section 4's engine). */
    std::uint64_t stolenWays = 0;
    /** Jobs lost to crashes / failed relocation (distinct outcome —
     *  never folded into completed or silently dropped). */
    std::uint64_t failed = 0;
    /** Crash->restart cycles this node went through. */
    std::uint64_t restarts = 0;
    /** False while the node is crashed at snapshot time. */
    bool alive = true;
    std::array<ModeTally, 3> byMode; // indexed by ExecutionMode
    /** Modelled energy (0 unless the feedback controller is on). */
    double energy = 0.0;
    /** Feedback-controller activity (src/control). */
    ControlTallies control;
};

template <typename V>
void
visitFields(ModeTally &t, V &v)
{
    v.u64("completed", t.completed);
    v.u64("deadline_hits", t.deadlineHits);
}

template <typename V>
void
visitFields(NodeMetrics &m, V &v)
{
    v.i32("node", m.node);
    v.u64("virtual_time", m.virtualTime);
    v.u64("placed", m.placed);
    v.u64("completed", m.completed);
    v.u64("in_flight", m.inFlight);
    v.u64("instructions", m.instructions);
    v.f64("utilisation", m.utilisation);
    v.u64("stolen_ways", m.stolenWays);
    v.u64("failed", m.failed);
    v.u64("restarts", m.restarts);
    v.boolean("alive", m.alive);
    for (std::size_t i = 0; i < m.byMode.size(); ++i)
        v.embed(modeKeys[i], m.byMode[i]);
    v.f64("energy", m.energy);
    v.embed("control", m.control);
}

/**
 * Driver-side fault and recovery counters (all zero on fault-free
 * runs — the fingerprint only includes them when any() is true, so a
 * run with an empty fault plan fingerprints byte-identically to a
 * build without the fault layer).
 */
struct FaultTallies
{
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    /** Jobs lost: running at a crash, or relocation rejected. */
    std::uint64_t failedJobs = 0;
    /** Waiting jobs re-admitted elsewhere (as-is or renegotiated). */
    std::uint64_t relocated = 0;
    /** Elastic waiting jobs relocated as Opportunistic. */
    std::uint64_t relocationDowngraded = 0;
    /** Waiting jobs no alive node would take (counted failed). */
    std::uint64_t relocationRejected = 0;
    /** Placement probes lost to drop windows. */
    std::uint64_t probesDropped = 0;
    /** Probes abandoned after the retry budget. */
    std::uint64_t probeTimeouts = 0;
    /** Probe retries that eventually succeeded. */
    std::uint64_t probeRetries = 0;
    /** Virtual cycles charged to retry backoff. */
    Cycle backoffCycles = 0;
    /** Duplicated negotiation replies detected and dropped. */
    std::uint64_t duplicateReplies = 0;
    /** (node, quantum) pairs hit by a slow-quantum window. */
    std::uint64_t stalledQuanta = 0;

    // Shard-link tallies (federated engine only; always zero in the
    // single-process engine, so they stay fingerprint-invisible).

    /** Shard messages whose first transmission was lost and resent. */
    std::uint64_t linkDrops = 0;
    /** Shard messages delivered twice and absorbed by seq dedup. */
    std::uint64_t linkDups = 0;
    /** Virtual cycles charged to shard-link latency windows. */
    Cycle linkDelayCycles = 0;
    /** (shard, quantum) advances deferred by a partition window. */
    std::uint64_t partitionedQuanta = 0;

    bool any() const;
    void accumulate(const FaultTallies &o);
};

/** Every fault tally, in the order the fingerprint's faults= segment
 *  and the JSONL faults object list them. */
inline constexpr TallyField<FaultTallies> faultTallyFields[] = {
    {"crashes", &FaultTallies::crashes},
    {"restarts", &FaultTallies::restarts},
    {"failed_jobs", &FaultTallies::failedJobs},
    {"relocated", &FaultTallies::relocated},
    {"relocation_downgraded", &FaultTallies::relocationDowngraded},
    {"relocation_rejected", &FaultTallies::relocationRejected},
    {"probes_dropped", &FaultTallies::probesDropped},
    {"probe_timeouts", &FaultTallies::probeTimeouts},
    {"probe_retries", &FaultTallies::probeRetries},
    {"backoff_cycles", &FaultTallies::backoffCycles},
    {"duplicate_replies", &FaultTallies::duplicateReplies},
    {"stalled_quanta", &FaultTallies::stalledQuanta},
    {"link_drops", &FaultTallies::linkDrops},
    {"link_dups", &FaultTallies::linkDups},
    {"link_delay_cycles", &FaultTallies::linkDelayCycles},
    {"partitioned_quanta", &FaultTallies::partitionedQuanta},
};

inline bool
FaultTallies::any() const
{
    for (const auto &f : faultTallyFields)
        if (this->*f.member != 0)
            return true;
    return false;
}

inline void
FaultTallies::accumulate(const FaultTallies &o)
{
    for (const auto &f : faultTallyFields)
        this->*f.member += o.*f.member;
}

/** Snapshot of the whole cluster. */
struct ClusterMetrics
{
    // Run identity.
    std::uint64_t seed = 0;
    unsigned threads = 1;
    /** Shard processes/controllers the run was federated over (1 =
     *  the single-process engine). Excluded from the fingerprint,
     *  like threads: shard count must not perturb results. */
    int shards = 1;
    Cycle quantum = 0;

    // Driver-side admission counters.
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    /** Accepted only after deadline renegotiation. */
    std::uint64_t negotiated = 0;
    /** Arrivals past the run horizon, never offered for admission. */
    std::uint64_t truncated = 0;
    std::array<std::uint64_t, numQosTiers> acceptedByTier{};

    // Simulation-side aggregates.
    Cycle virtualTime = 0;
    InstCount instructions = 0;
    std::uint64_t completed = 0;
    std::uint64_t stolenWays = 0;
    std::array<ModeTally, 3> byMode;

    // Fault-injection tallies (zero and fingerprint-invisible on
    // fault-free runs).
    FaultTallies faults;
    /** Distinct invariant violations the oracle recorded (0 = ok). */
    std::uint64_t invariantViolations = 0;

    // Feedback-controller aggregates (src/control). Like the fault
    // tallies, they only join the fingerprint and the exports when
    // the controller ran, so controller-off output is byte-identical
    // to a build without the control layer.
    bool controllerOn = false;
    double energy = 0.0;
    ControlTallies control;

    // Host-side measurement (excluded from the fingerprint).
    double wallSeconds = 0.0;

    std::vector<NodeMetrics> nodes;

    double
    acceptRate() const
    {
        return submitted == 0 ? 1.0
                              : static_cast<double>(accepted) /
                                    static_cast<double>(submitted);
    }

    /** Completed jobs per host-side second. */
    double
    jobsPerWallSecond() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(completed) / wallSeconds;
    }

    /**
     * Canonical digest of every simulation-determined counter —
     * admission totals, per-mode deadline hits, per-node placement
     * and instruction totals — for determinism comparisons. Wall
     * clock and thread count are deliberately excluded.
     */
    std::string fingerprint() const;
};

/**
 * Aggregates node-worker state into snapshots and writes them out.
 */
class MetricsExporter
{
  public:
    /** Collect one node's counters (node must be quiescent). */
    static NodeMetrics collectNode(const NodeWorker &worker);

    /**
     * Fold per-node snapshots into @p cluster (fills the
     * simulation-side aggregates and the nodes vector).
     */
    static void aggregate(ClusterMetrics &cluster,
                          const std::vector<NodeMetrics> &nodes);

    /** One JSON object per line: a cluster line, then a node line
     *  per node. */
    static void writeJsonl(const ClusterMetrics &m, std::ostream &os);

    /** CSV: header plus one row per node. */
    static void writeCsv(const ClusterMetrics &m, std::ostream &os);

    /** File variants; fatal() when the path cannot be opened. */
    static void writeJsonlFile(const ClusterMetrics &m,
                               const std::string &path);
    static void writeCsvFile(const ClusterMetrics &m,
                             const std::string &path);
};

} // namespace cmpqos

#endif // CMPQOS_CLUSTER_METRICS_HH
