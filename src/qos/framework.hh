/**
 * @file
 * The QoS framework facade: one CMP node with its Local Admission
 * Controller, scheduler, resource-stealing engine, and co-simulation
 * engine wired together. Runs whole workloads (arrival stream ->
 * admission -> reserved/opportunistic execution -> completion) and
 * reports the metrics the paper's evaluation uses: deadline hit
 * rates, per-job wall-clock times, makespan of the first N accepted
 * jobs, and modelled LAC occupancy.
 *
 * The EqualPart baseline (Table 2: no admission control, default OS
 * time-sharing, equal L2 partition — the paper's stand-in for a
 * Virtual Private Cache-style non-QoS CMP) is a policy switch here so
 * every configuration runs through the same machinery.
 */

#ifndef CMPQOS_QOS_FRAMEWORK_HH
#define CMPQOS_QOS_FRAMEWORK_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "qos/admission.hh"
#include "qos/job.hh"
#include "qos/scheduler.hh"
#include "qos/stealing.hh"
#include "qos/workload_spec.hh"
#include "sim/cmp_system.hh"
#include "sim/simulation.hh"

namespace cmpqos
{

/** Which system policy a framework instance runs. */
enum class SystemPolicy
{
    Qos,
    EqualPart,
};

/** Framework-level configuration. */
struct FrameworkConfig
{
    CmpConfig cmp;
    AdmissionConfig admission;
    StealingConfig stealing;
    SystemPolicy policy = SystemPolicy::Qos;
    /**
     * tw = margin * (instructions * analytic CPI at requested ways).
     * The maximum wall-clock time is a user expectation, not a safe
     * WCET (Section 3.2); a ~10% margin absorbs warm-up and
     * co-runner bandwidth effects.
     */
    double wallClockMargin = 1.10;
    /**
     * Terminate reserved jobs that run past their maximum wall-clock
     * time (Section 3.2: "a job may be terminated if it runs longer
     * than its maximum wall-clock time"). Off by default: the paper's
     * evaluation relies on tw being an honest expectation, not on
     * killing jobs.
     */
    bool enforceMaxWallClock = false;
    /**
     * Seed of the node's internal RNG stream (job access-generator
     * seeds). Multi-node engines derive one per node (SplitMix via
     * Rng) so node streams are independent yet reproducible.
     */
    std::uint64_t seed = 0x1234abcdULL;

    /** Derive a config for one Table 2 configuration. */
    static FrameworkConfig forModeConfig(ModeConfig config);
};

/** Per-job result row (one per accepted job). */
struct JobOutcome
{
    JobId id = invalidJob;
    std::string benchmark;
    ExecutionMode mode = ExecutionMode::Strict;
    double elasticSlack = 0.0;
    Cycle arrival = 0;
    Cycle accept = 0;
    Cycle slotStart = 0;
    double startCycle = 0.0;
    double endCycle = 0.0;
    Cycle deadline = 0;
    bool deadlineMet = false;
    double wallClock = 0.0;
    bool autoDowngraded = false;
    bool promotedToStrict = false;
    Cycle promotionTime = 0;
    unsigned stolenWays = 0;
    bool stealingCancelled = false;
    double observedMissIncrease = 0.0;
    /** Cumulative miss increase when cancellation fired (0 if never). */
    double cancelMissIncrease = 0.0;
    double missRate = 0.0;
    double cpi = 0.0;

    bool countsForQos() const
    {
        return mode != ExecutionMode::Opportunistic;
    }
};

/** Aggregate result of one workload run. */
struct WorkloadResult
{
    std::string workloadName;
    ModeConfig config = ModeConfig::AllStrict;
    std::vector<JobOutcome> jobs; // accepted jobs, acceptance order
    /** Completion cycle of the last accepted job (from time 0). */
    double makespan = 0.0;
    std::uint64_t candidatesSubmitted = 0;
    std::uint64_t rejected = 0;
    Cycle lacOverheadCycles = 0;

    /**
     * Fraction of jobs meeting their deadline. For QoS
     * configurations the paper computes this over Strict/Elastic
     * jobs only; for EqualPart over all jobs.
     */
    double deadlineHitRate(bool qos_jobs_only) const;

    /** Throughput relative to @p base (base.makespan / makespan). */
    double throughputVs(const WorkloadResult &base) const;

    /** Modelled LAC occupancy as a fraction of makespan (Sec 7.5). */
    double lacOccupancy() const;

    /** Wall-clock samples of jobs in @p mode (all if mode absent). */
    std::vector<double> wallClocks(ExecutionMode mode) const;
};

/**
 * One CMP node running the full QoS framework (or the EqualPart
 * baseline). Single-use per workload run; construct fresh per run.
 */
class QosFramework
{
  public:
    explicit QosFramework(const FrameworkConfig &config);

    /** Run a complete workload to completion of all accepted jobs. */
    WorkloadResult runWorkload(const WorkloadSpec &spec);

    /**
     * Lower-level API (examples / tests): submit one job at the
     * current simulated time and, if accepted, hook up its execution.
     * @return the job (inspect state() for the decision), or nullptr
     *         if the framework rejected it.
     */
    Job *submitJob(const JobRequest &request, InstCount instructions);

    /** Run the simulation until all submitted jobs complete. */
    void runToCompletion();

    /**
     * Manual mode downgrade (Section 3.3): move an accepted job to a
     * weaker execution mode at the current simulated time.
     *
     * Allowed transitions and their interchangeability conditions:
     *  - Strict -> Elastic(X): X must not exceed the job's deadline
     *    slack (X <= ((td - now) - tw) / tw) and the extended
     *    reservation must still fit — the deadline stays guaranteed.
     *  - Strict/Elastic -> Opportunistic: the reservation is released
     *    entirely; the deadline guarantee is forfeited (the paper's
     *    manually-downgraded Opportunistic jobs reserve nothing).
     * Upgrades are not supported.
     *
     * @return true on success; false if the transition is not
     *         interchangeable, does not fit, or the job is not in a
     *         downgradable state.
     */
    bool downgradeJob(Job &job, const ModeSpec &to);

    /**
     * Cancel an accepted job (user abort): releases its reservation,
     * core, and pool slot. Works on Waiting and Running jobs.
     * @return true if the job was cancelled.
     */
    bool cancelJob(Job &job);

    /** Jobs terminated by max-wall-clock enforcement. */
    std::uint64_t enforcementTerminations() const
    {
        return enforcementKills_;
    }

    /** Compute tw for a request under this config's margin. */
    Cycle maxWallClockFor(const JobRequest &request,
                          InstCount instructions) const;

    /**
     * Memoized standalone CPI of @p benchmark on a @p ways-way
     * partition under @p cmp (runSolo, standing set pre-filled) —
     * the measurement the feedback controller (src/control) derives
     * dynamic SLO setpoints from, and the calibration
     * maxWallClockFor() builds tw on. Prior solo runs are how a batch
     * user knows a job's runtime, so that tw is a realistic maximum
     * wall-clock time (Section 3.2).
     */
    static double soloCpi(const std::string &benchmark, unsigned ways,
                          const CmpConfig &cmp);

    /**
     * Admission probe without side effects: would this node accept
     * the request right now, and with what slot? Used by multi-node
     * placement (the cluster engine's global admission, through
     * NodeWorker::probe).
     */
    AdmissionDecision probeJob(const JobRequest &request,
                               InstCount instructions) const;

    Simulation &simulation() { return sim_; }
    const Simulation &simulation() const { return sim_; }
    CmpSystem &system() { return sys_; }
    const CmpSystem &system() const { return sys_; }
    LocalAdmissionController &lac() { return lac_; }
    const LocalAdmissionController &lac() const { return lac_; }
    Scheduler &scheduler() { return sched_; }
    const Scheduler &scheduler() const { return sched_; }
    ResourceStealingEngine &stealing() { return steal_; }
    const ResourceStealingEngine &stealing() const { return steal_; }

    const std::vector<std::unique_ptr<Job>> &jobs() const { return jobs_; }

    const FrameworkConfig &config() const { return config_; }

    /**
     * Telemetry: wire @p trace through every layer of this node —
     * LAC (admit/reject), stealing engine (steal/cancel), partitioned
     * cache (repartition), simulation (job start) — plus the
     * framework's own lifecycle events (downgrade, promotion,
     * deadline outcome, termination). Pass nullptr to detach.
     */
    void setTrace(TraceRecorder *trace);

    /** Jobs submitted but not yet completed/terminated (in flight). */
    std::size_t pendingJobs() const { return pendingCount_; }

  private:
    Job *createJob(const JobRequest &request, InstCount instructions);
    void admitAndPlace(Job *job);
    void placeAccepted(Job *job);
    void tryStartReserved(Job *job);
    void tryPromote(Job *job);
    void onCompletion(JobExecution *exec);
    /** Tear a live job out of the system (cancel / enforcement). */
    void removeJob(Job *job, JobState final_state,
                   const char *cause = "cancelled");
    void scheduleEnforcement(Job *job);
    JobOutcome outcomeOf(const Job &job) const;

    FrameworkConfig config_;
    CmpSystem sys_;
    Simulation sim_;
    LocalAdmissionController lac_;
    Scheduler sched_;
    ResourceStealingEngine steal_;
    TraceRecorder *trace_ = nullptr;
    Rng rng_;

    std::vector<std::unique_ptr<Job>> jobs_;
    std::unordered_map<JobId, Job *> byId_;
    std::size_t pendingCount_ = 0;
    std::uint64_t enforcementKills_ = 0;

    // Workload-run state.
    const WorkloadSpec *spec_ = nullptr;
    std::size_t acceptedCount_ = 0;
    std::size_t completedAccepted_ = 0;
    std::uint64_t candidates_ = 0;
    std::uint64_t rejectedCandidates_ = 0;
    std::vector<Job *> acceptedJobs_;
};

} // namespace cmpqos

#endif // CMPQOS_QOS_FRAMEWORK_HH
