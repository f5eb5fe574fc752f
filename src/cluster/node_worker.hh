/**
 * @file
 * One CMP node inside the cluster engine: a QosFramework co-simulation
 * advanced in bounded quanta by the worker thread pool.
 *
 * A NodeWorker is only ever touched from one thread at a time — the
 * driver thread between quanta (placement probes, submissions, and
 * fault actions) and exactly one pool worker during a quantum
 * (advanceTo / drain). The engine's barrier-step loop enforces that
 * ownership handoff, so the worker itself needs no locks.
 *
 * Crash/restart: crash() retires the current framework — its work is
 * added to the carried tally so metrics survive the loss,
 * running jobs are counted failed, and waiting jobs are handed back
 * for relocation. restart() brings the node back with a fresh
 * framework whose seed is derived deterministically from the node
 * seed and the restart ordinal, so fault runs replay bit-identically
 * at any thread count.
 */

#ifndef CMPQOS_CLUSTER_NODE_WORKER_HH
#define CMPQOS_CLUSTER_NODE_WORKER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/metrics.hh"
#include "common/annotations.hh"
#include "control/controller.hh"
#include "qos/framework.hh"

namespace cmpqos
{

/**
 * What a node carries over its retired framework incarnations
 * (crashes), added into its metrics alongside the live framework.
 */
struct NodeCarried
{
    /** Finished work of the retired incarnations. */
    WorkTally work;
    std::uint64_t failed = 0;
    /** Node clock at the (last) crash — frozen while dead. */
    Cycle virtualTime = 0;
    /** Controller tallies of retired incarnations. */
    ControlTallies control;
};

/**
 * A cluster node: framework + per-node placement counters.
 */
class NodeWorker
{
  public:
    /**
     * @param seed Per-node RNG stream seed (the engine derives these
     *        from the cluster seed via SplitMix so streams are
     *        independent and reproducible at any thread count).
     */
    NodeWorker(NodeId id, const FrameworkConfig &config,
               std::uint64_t seed);

    NodeId id() const { return id_; }

    QosFramework &
    framework()
    {
        owner_.grant();
        return *framework_;
    }

    const QosFramework &
    framework() const
    {
        owner_.grant();
        return *framework_;
    }

    /** Node-local virtual time (frozen at the crash while dead). */
    Cycle
    virtualNow() const
    {
        owner_.grant();
        return alive_ ? framework_->simulation().now()
                      : carried_.virtualTime;
    }

    /**
     * Advance the node's co-simulation to at least @p t (exactly t
     * when the node idles before then; overshoot is bounded by one
     * execution chunk otherwise). Dead nodes do not advance.
     *
     * @param stall Slow-quantum fault: fall this many cycles short of
     *        @p t (clamped at the current clock; 0 = no fault).
     */
    void advanceTo(Cycle t, Cycle stall = 0);

    /** Run until every submitted job has completed (no-op if dead). */
    void drain();

    /** Side-effect-free admission probe at the node's local time. */
    AdmissionDecision probe(const JobRequest &request,
                            InstCount instructions) const;

    /** Submit (commits on acceptance). @return the job or nullptr. */
    Job *submit(const JobRequest &request, InstCount instructions);

    /** Jobs placed on this node so far (all incarnations). */
    std::uint64_t
    placed() const
    {
        owner_.grant();
        return placed_;
    }

    /** Jobs currently in flight (submitted, not finished). */
    std::size_t
    inFlight() const
    {
        owner_.grant();
        return alive_ ? framework_->pendingJobs() : 0;
    }

    /** The node accepts probes / submissions / advances. */
    bool
    alive() const
    {
        owner_.grant();
        return alive_;
    }

    /** Completed restarts. */
    std::uint64_t
    restarts() const
    {
        owner_.grant();
        return restarts_;
    }

    /** A job lost in a crash while waiting for its slot. */
    struct LostJob
    {
        JobId localJob = invalidJob;
        JobRequest request;
        InstCount instructions = 0;
        ExecutionMode mode = ExecutionMode::Strict;
    };

    /** What a crash destroyed. */
    struct CrashReport
    {
        /** Local ids of jobs that were running (now failed). */
        std::vector<JobId> failedRunning;
        /** Waiting jobs the engine may relocate to other nodes. */
        std::vector<LostJob> waiting;
    };

    /**
     * Kill the node at a quantum barrier: add the framework's work to
     * the carried tally, count running jobs as failed, and report
     * waiting jobs for relocation. The node stops
     * probing, accepting and advancing until restart().
     */
    CrashReport crash();

    /**
     * Bring a crashed node back at time @p now with a fresh, empty
     * framework (seed derived from node seed + restart ordinal) whose
     * clock is aligned to the cluster barrier.
     */
    void restart(Cycle now);

    /** Count one waiting job that could not be relocated anywhere. */
    void
    recordRelocationFailure()
    {
        owner_.grant();
        ++carried_.failed;
    }

    /** Tallies carried over retired incarnations. */
    const NodeCarried &
    carried() const
    {
        owner_.grant();
        return carried_;
    }

    /**
     * Telemetry: wire @p trace through the node's framework and emit
     * QuantumBegin/QuantumEnd around each advanceTo. The recorder's
     * ring is SPSC-safe for the node's one-owner-at-a-time handoff
     * (driver between quanta, one pool worker during one).
     */
    void setTrace(TraceRecorder *trace);

    /**
     * Arm the feedback controller (src/control) on this node. Call
     * before the first quantum; survives crash/restart with fresh
     * per-incarnation measurement state.
     */
    void enableController(const ControllerConfig &config);

    /** The feedback controller's configuration (disabled unless armed). */
    const ControllerConfig &
    controllerConfig() const
    {
        owner_.grant();
        return controllerConfig_;
    }

    /**
     * One controller step at the quantum barrier, before the node
     * advances. No-op when the controller is off or the node is dead.
     */
    void controllerStep();

    /** Controller tallies across all incarnations. */
    ControlTallies controlTallies() const;

  private:
    struct PendingRequest
    {
        JobRequest request;
        InstCount instructions = 0;
    };

    /**
     * The ownership role behind the "one thread at a time" comment
     * above: the driver between quanta, exactly one pool worker
     * during one. Every public entry point asserts it, and all
     * mutable node state is guarded by it, so any future access path
     * that bypasses the barrier handoff shows up as a thread-safety
     * error instead of a data race.
     */
    OwnerRole owner_;

    NodeId id_;
    FrameworkConfig config_;
    std::uint64_t seed_ = 0;
    std::unique_ptr<QosFramework> framework_ CMPQOS_GUARDED_BY(owner_);
    TraceRecorder *trace_ CMPQOS_GUARDED_BY(owner_) = nullptr;
    std::uint64_t placed_ CMPQOS_GUARDED_BY(owner_) = 0;
    bool alive_ CMPQOS_GUARDED_BY(owner_) = true;
    std::uint64_t restarts_ CMPQOS_GUARDED_BY(owner_) = 0;
    NodeCarried carried_ CMPQOS_GUARDED_BY(owner_);
    /** Requests of in-flight jobs, for crash-time relocation. */
    std::unordered_map<JobId, PendingRequest> pendingRequests_
        CMPQOS_GUARDED_BY(owner_);
    ControllerConfig controllerConfig_;
    std::unique_ptr<NodeController> controller_
        CMPQOS_GUARDED_BY(owner_);
};

} // namespace cmpqos

#endif // CMPQOS_CLUSTER_NODE_WORKER_HH
