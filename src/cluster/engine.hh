/**
 * @file
 * The cluster engine: many independent CMP node co-simulations
 * advanced concurrently on a worker thread pool, fed by an open-loop
 * arrival stream placed through global admission — Section 3.1's
 * server of CMP nodes behind a Global Admission Controller (GAC), run
 * as a parallel simulation. This is the repository's one GAC: the
 * engines, qosd, federation and perfbench all place jobs through it.
 *
 * Execution is barrier-stepped: virtual time is cut into placement
 * quanta of `quantum` cycles. At each boundary the driver thread
 * (alone) places every arrival falling inside the next quantum —
 * probing all nodes, choosing one per GacPolicy, negotiating relaxed
 * deadlines when every node rejects — then the node backend advances
 * all nodes through the quantum in parallel. Admission decisions are
 * therefore causally ordered with node virtual time to within one
 * quantum (plus the co-simulator's one-chunk skew), and, because
 * nodes share no state and per-node work is deterministic, the whole
 * run is bit-identical for a given seed at ANY worker thread count —
 * and, through the shard backend (src/federation), at any shard count.
 */

#ifndef CMPQOS_CLUSTER_ENGINE_HH
#define CMPQOS_CLUSTER_ENGINE_HH

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "cluster/arrival.hh"
#include "cluster/metrics.hh"
#include "cluster/node_backend.hh"
#include "common/annotations.hh"
#include "fault/injector.hh"

namespace cmpqos
{

/** How the GAC chooses among nodes that can accept a job. */
enum class GacPolicy
{
    /** First node (by id order) whose LAC accepts. */
    FirstFit,
    /** Node offering the earliest timeslot start. */
    EarliestSlot,
    /**
     * Node with the fewest jobs in flight, ties broken by the lowest
     * reserved cache share at node time and then by id. Spreads load
     * across the fleet (the engine's default).
     */
    LeastLoaded,
};

/** "first-fit", "earliest-slot" or "least-loaded". */
const char *gacPolicyName(GacPolicy p);

/** Inverse of gacPolicyName; false (and @p out untouched) for any
 *  other name. */
bool parseGacPolicy(std::string_view name, GacPolicy &out);

/** What admission decided about one arrival (observer callback). */
struct PlacementOutcome
{
    /** Global submission sequence number (order offered to the GAC). */
    std::uint64_t seq = 0;
    bool accepted = false;
    bool negotiated = false;
    /** Accepting node, -1 when rejected. */
    NodeId node = -1;
    /** Reserved timeslot start the accepting node offered in the
     *  probe round that selected it (0 when rejected). */
    Cycle slotStart = 0;
    /** Deadline factor actually granted (== requested unless
     *  negotiation relaxed it). */
    double deadlineFactor = 0.0;
};

/**
 * Passive observation points on the driver thread. Callbacks run
 * synchronously inside the run loop — between an arrival's placement
 * and the next, or at a quantum barrier while every node is quiescent
 * — and must not touch the engine (the driver role is held by the run
 * loop for the duration). The engine's control flow and state are
 * identical with or without an observer installed; qosd relies on
 * that to make live runs replayable from the journal alone.
 */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    /** One arrival went through admission (accepted or not). */
    virtual void onPlacement(const ClusterArrival &arrival,
                             const PlacementOutcome &outcome)
    {
        (void)arrival;
        (void)outcome;
    }

    /** A quantum barrier completed; telemetry has been drained and
     *  cluster virtual time is @p now. */
    virtual void onQuantum(Cycle now) { (void)now; }
};

/** Cluster engine configuration. */
struct ClusterConfig
{
    /** CMP nodes in the cluster. */
    int nodes = 8;
    /** Worker threads (0 = hardware concurrency). */
    unsigned threads = 0;
    /** Placement quantum in cycles (bounded-quanta step size). */
    Cycle quantum = 2'000'000;
    /** Placement policy across nodes. */
    GacPolicy policy = GacPolicy::LeastLoaded;
    /** Renegotiate a relaxed deadline when every node rejects
     *  (Section 3.1's "negotiate with the user for an acceptable QoS
     *  target"): offers grow in 0.25x steps up to 4x the request. */
    bool negotiate = true;
    /** Cluster seed; per-node streams are SplitMix-derived from it. */
    std::uint64_t seed = 1;
    /** Per-node framework configuration (seed field is overridden). */
    FrameworkConfig node;
    /**
     * Optional telemetry hub (not owned; may be nullptr). Must be
     * built with at least nodes + 1 producers: producer 0 takes the
     * driver's placement events, producer i+1 node i's. The engine
     * drains it at every quantum barrier; the caller still calls
     * TraceCollector::finish() when the run (or runs) are over.
     */
    TraceCollector *telemetry = nullptr;
    /**
     * Optional fault plan (not owned; nullptr or empty = fault-free).
     * Faults execute on the driver thread at quantum barriers, so a
     * given seed + plan replays bit-identically at any thread count.
     */
    const FaultPlan *faultPlan = nullptr;
    /** Evaluate the invariant oracle at every quantum barrier (and
     *  once more after the final drain). */
    bool checkInvariants = false;
    /** Optional passive observer (not owned; may be nullptr). Called
     *  on the driver thread only; see EngineObserver. */
    EngineObserver *observer = nullptr;
    /**
     * Per-node feedback controller (src/control; disabled by
     * default). Stepped once before every advance the driver issues —
     * after that barrier's placements, before the nodes move — so
     * controller-on runs stay bit-identical at any thread or shard
     * count.
     */
    ControllerConfig control;
};

/**
 * The cluster driver: Section 3.1's GAC run loop over a node backend
 * (node_backend.hh) — in-process nodes when built from a ClusterConfig
 * alone, shard links when FederatedEngine builds it.
 */
class ClusterEngine
{
  public:
    explicit ClusterEngine(const ClusterConfig &config);
    virtual ~ClusterEngine() = default;
    ClusterEngine(const ClusterEngine &) = delete;
    ClusterEngine &operator=(const ClusterEngine &) = delete;

    int numNodes() const { return config_.nodes; }
    /** Worker threads per node slice. */
    unsigned numThreads() const { return backend_->threads(); }
    /** Node slices (shards) the nodes are spread over. */
    int numShards() const { return backend_->shards(); }
    /** A node of an engine whose nodes are in this process. */
    NodeWorker &node(NodeId n);

    /**
     * Consume the whole arrival stream, then drain every node;
     * returns the final metrics snapshot.
     */
    ClusterMetrics runToCompletion(ArrivalProcess &arrivals);

    /**
     * Run until cluster virtual time reaches @p duration; arrivals
     * beyond it are counted as truncated, jobs still in flight stay
     * in flight (open-loop semantics: the snapshot reports a running
     * system, not a drained one).
     */
    ClusterMetrics runForDuration(ArrivalProcess &arrivals,
                                  Cycle duration);

    /** The oracle, when checkInvariants was set and the nodes are in
     *  this process (else nullptr). */
    const InvariantChecker *invariantChecker() const
    {
        return local_ != nullptr ? local_->checker() : nullptr;
    }

    /** Oracle totals over every node slice (cumulative, as of the
     *  last barrier). Zero when checkInvariants was off. */
    std::uint64_t invariantChecksRun() const
    {
        return backend_->invariantChecksRun();
    }
    std::uint64_t invariantViolations() const
    {
        return backend_->invariantViolations();
    }
    /** The violation reports of every node slice, in node order. */
    std::string invariantReport() { return backend_->invariantReport(); }

  protected:
    /** Drive the nodes behind @p backend; a fault plan's link faults
     *  must target one of its @p shard_links (0 when in-process). */
    ClusterEngine(const ClusterConfig &config,
                  std::unique_ptr<NodeBackend> backend, int shard_links);

  private:
    ClusterMetrics run(ArrivalProcess &arrivals, Cycle horizon,
                       bool drain) CMPQOS_REQUIRES(driver_);
    void place(const ClusterArrival &arrival) CMPQOS_REQUIRES(driver_);
    /**
     * One probe round; choose among accepting nodes per policy, -1 if
     * none accept. Dead nodes never accept. @p probe_faults applies
     * the current drop/timeout skip set (relocation bypasses it: the
     * GAC re-places from its own records, not through a lossy probe).
     * The round's records stay in probes_ for the observer.
     */
    NodeId choose(const JobRequest &request, InstCount instructions,
                  Cycle t, bool probe_faults = true)
        CMPQOS_REQUIRES(driver_);
    /** Probe at ever more relaxed deadlines until a node accepts (-1
     *  if none); @p request keeps the last factor offered. */
    NodeId negotiate(JobRequest &request, InstCount instructions,
                     Cycle t, bool probe_faults = true)
        CMPQOS_REQUIRES(driver_);
    /** The one place the driver issues a barrier (controller-step
     *  rule: see the definition). */
    void advance(Cycle from, Cycle to) CMPQOS_REQUIRES(driver_);
    ClusterMetrics snapshot() CMPQOS_REQUIRES(driver_);

    // Fault machinery (all driver-thread, all barrier-aligned).
    void applyFaultActions(Cycle t) CMPQOS_REQUIRES(driver_);
    void relocate(NodeId origin, const NodeWorker::LostJob &lost,
                  Cycle t) CMPQOS_REQUIRES(driver_);
    void refreshProbeFaults(Cycle t) CMPQOS_REQUIRES(driver_);

    /**
     * The driver role: placement, fault actions, telemetry drains and
     * the admission counters all belong to the one thread driving
     * run(). runToCompletion/runForDuration assert it (the caller's
     * thread becomes the driver for the duration of the call); the
     * private machinery requires it.
     */
    OwnerRole driver_;

    ClusterConfig config_;
    std::unique_ptr<NodeBackend> backend_;
    /** backend_ when the nodes are in this process, else nullptr. */
    LocalBackend *local_ = nullptr;
    TraceRecorder *driverTrace_ = nullptr;

    std::unique_ptr<FaultInjector> injector_;
    FaultTallies faults_ CMPQOS_GUARDED_BY(driver_);
    /** Per-node liveness as the driver's fault actions left it. */
    std::vector<char> alive_ CMPQOS_GUARDED_BY(driver_);
    /** Per-node probe-fault skip set for the arrival being placed. */
    std::vector<char> probeSkip_ CMPQOS_GUARDED_BY(driver_);
    /** The last probe round (global node order): the one that selected
     *  the target, so the observer's slotStart source. */
    std::vector<NodeProbe> probes_ CMPQOS_GUARDED_BY(driver_);
    /** Arrival seqs whose acceptance committed (duplicate-reply
     *  dedup; maintained only under an active injector). */
    std::unordered_set<std::uint64_t> committedSeqs_
        CMPQOS_GUARDED_BY(driver_);

    // Driver-side admission counters.
    std::uint64_t submitted_ CMPQOS_GUARDED_BY(driver_) = 0;
    std::uint64_t accepted_ CMPQOS_GUARDED_BY(driver_) = 0;
    std::uint64_t rejected_ CMPQOS_GUARDED_BY(driver_) = 0;
    std::uint64_t negotiated_ CMPQOS_GUARDED_BY(driver_) = 0;
    std::uint64_t truncated_ CMPQOS_GUARDED_BY(driver_) = 0;
    std::array<std::uint64_t, numQosTiers>
        acceptedByTier_ CMPQOS_GUARDED_BY(driver_){};
    double wallSeconds_ CMPQOS_GUARDED_BY(driver_) = 0.0;
};

} // namespace cmpqos

#endif // CMPQOS_CLUSTER_ENGINE_HH
