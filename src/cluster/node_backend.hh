/**
 * @file
 * The node-backend seam: the operations the cluster driver
 * (ClusterEngine, the one GAC run loop) needs from its CMP nodes. The
 * driver makes every decision — placement, negotiation, faults, the
 * barrier schedule and with it the controller-step rule. Backends:
 *
 *  - LocalBackend (here): NodeWorkers in this process on a thread
 *    pool; probe records are plain values, no message, no codec.
 *  - the shard backend (src/federation): nodes on shard controllers
 *    behind links, one message round per operation. Each shard runs a
 *    LocalBackend over its slice, so the per-node code exists once.
 *
 * Only the thread driving the run calls in, never during an advance.
 */

#ifndef CMPQOS_CLUSTER_NODE_BACKEND_HH
#define CMPQOS_CLUSTER_NODE_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "cluster/metrics.hh"
#include "cluster/node_worker.hh"
#include "common/thread_pool.hh"
#include "fault/invariants.hh"
#include "telemetry/collector.hh"

namespace cmpqos
{

/** One node's answer inside a probe round. */
struct NodeProbe
{
    NodeId node = -1;
    bool alive = false;
    bool accepted = false;
    /** Reserved timeslot start the LAC would grant. */
    Cycle slotStart = 0;
    /** LeastLoaded key: jobs in flight. */
    std::uint64_t load = 0;
    /** LeastLoaded tie-break: reserved cache ways at node time. */
    unsigned ways = 0;
};

/** The operations the cluster driver needs from its nodes. */
class NodeBackend
{
  public:
    NodeBackend() = default;
    virtual ~NodeBackend() = default;
    NodeBackend(const NodeBackend &) = delete;
    NodeBackend &operator=(const NodeBackend &) = delete;

    /** Worker threads per node slice, and node slices (shards). */
    virtual unsigned threads() const = 0;
    virtual int shards() const = 0;

    /**
     * Probe every reachable node at time @p t, in global node order.
     * Dead nodes answer with alive = false; nodes the backend cannot
     * reach at @p t are absent. Probing never changes node state.
     */
    virtual std::vector<NodeProbe> probe(const JobRequest &request,
                                         InstCount instructions,
                                         Cycle t) = 0;

    /** Submit to @p node. @return its node-local job id, or
     *  invalidJob when the node refused. */
    virtual JobId submit(NodeId node, const JobRequest &request,
                         InstCount instructions, Cycle t) = 0;

    /** Crash @p node at barrier @p t (see NodeWorker::crash). */
    virtual NodeWorker::CrashReport crash(NodeId node, Cycle t) = 0;

    /** Restart crashed @p node at barrier @p t. */
    virtual void restart(NodeId node, Cycle t) = 0;

    /** Count one unrelocatable waiting job failed on @p node. */
    virtual void recordRelocationFailure(NodeId node, Cycle t) = 0;

    /**
     * One barrier: step every node's feedback controller, advance the
     * alive nodes to @p to less their stalls (indexed by node id, or
     * empty), drain telemetry, run the oracle. Controllers step here
     * and nowhere else; the driver decides when a barrier happens.
     */
    virtual void advance(Cycle from, Cycle to,
                         const std::vector<Cycle> &stalls) = 0;

    /** Run every node to completion, drain telemetry, run oracle. */
    virtual void drain() = 0;

    /** Per-node metrics in global node order. Backend-side fault
     *  tallies (shard links) are added into @p faults. */
    virtual std::vector<NodeMetrics> collect(FaultTallies &faults) = 0;

    /** Oracle totals so far (zero when the oracle is off). */
    virtual std::uint64_t invariantChecksRun() const = 0;
    virtual std::uint64_t invariantViolations() const = 0;
    /** Violation report text, slices in node order. */
    virtual std::string invariantReport() = 0;
};

/** Expand the cluster seed into one RNG seed per node (SplitMix, in
 *  node order), the same at any thread or shard count. Every backend
 *  builds its nodes from these, so @p nodes is checked here. */
std::vector<std::uint64_t> nodeSeeds(std::uint64_t cluster_seed,
                                     int nodes);

/** In-process nodes with global ids [first, first + seeds.size()):
 *  the whole cluster for ClusterEngine, one slice for a shard. */
class LocalBackend : public NodeBackend
{
  public:
    /** @param telemetry Hub drained at every barrier (not owned; may
     *         be nullptr); producer i+1 records local node i. */
    LocalBackend(NodeId first, const std::vector<std::uint64_t> &seeds,
                 const FrameworkConfig &node, unsigned threads,
                 TraceCollector *telemetry, bool check_invariants,
                 const ControllerConfig &control);

    unsigned threads() const override { return pool_.size(); }
    int shards() const override { return 1; }
    /** Nodes in this slice. */
    std::size_t size() const { return nodes_.size(); }

    std::vector<NodeProbe> probe(const JobRequest &request,
                                 InstCount instructions,
                                 Cycle t) override;
    JobId submit(NodeId id, const JobRequest &request,
                 InstCount instructions, Cycle t) override;
    NodeWorker::CrashReport crash(NodeId id, Cycle) override
    {
        return node(id).crash();
    }
    void restart(NodeId id, Cycle t) override { node(id).restart(t); }
    void recordRelocationFailure(NodeId id, Cycle) override
    {
        node(id).recordRelocationFailure();
    }
    void advance(Cycle from, Cycle to,
                 const std::vector<Cycle> &stalls) override;
    void drain() override;
    std::vector<NodeMetrics> collect(FaultTallies &faults) override;

    std::uint64_t invariantChecksRun() const override
    {
        return checker_ != nullptr ? checker_->checksRun() : 0;
    }
    std::uint64_t invariantViolations() const override
    {
        return checker_ != nullptr ? checker_->totalViolations() : 0;
    }
    std::string invariantReport() override
    {
        return checker_ != nullptr ? checker_->report() : std::string();
    }

    /** Whether global node @p id is inside this slice. */
    bool
    contains(NodeId id) const
    {
        return id >= first_ &&
               id - first_ < static_cast<NodeId>(nodes_.size());
    }
    /** Node @p id (a global id inside this slice). */
    NodeWorker &node(NodeId id);
    /** The oracle, when checkInvariants was set (else nullptr). */
    const InvariantChecker *checker() const { return checker_.get(); }

  private:
    /** Quantum barrier: every node is quiescent, so the rings can be
     *  emptied in producer order and the oracle can scan. */
    void barrier();

    NodeId first_;
    ThreadPool pool_;
    std::vector<std::unique_ptr<NodeWorker>> nodes_;
    TraceCollector *telemetry_;
    std::unique_ptr<InvariantChecker> checker_;
};

} // namespace cmpqos

#endif // CMPQOS_CLUSTER_NODE_BACKEND_HH
