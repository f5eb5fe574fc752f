/**
 * @file
 * The resource stealing engine (Sections 4.2-4.3): while an
 * Elastic(X) job runs, steal one L2 way from it per repartitioning
 * interval (2M of the job's instructions) and let the opportunistic
 * pool absorb it; a set-sampled duplicate tag array tracks the miss
 * count the job would have had without stealing, and if the real miss
 * count exceeds it by X%, stealing is cancelled and every stolen way
 * is returned at once.
 *
 * Per footnote 2, stealing also pauses while the memory bus is
 * saturated (queueing delay is only flat before saturation, so the
 * miss-rate-bounds-CPI argument would break down past it).
 */

#ifndef CMPQOS_QOS_STEALING_HH
#define CMPQOS_QOS_STEALING_HH

#include <unordered_map>

#include "common/types.hh"
#include "qos/job.hh"
#include "sim/cmp_system.hh"
#include "telemetry/recorder.hh"

namespace cmpqos
{

/** Stealing engine parameters (defaults follow Section 6). */
struct StealingConfig
{
    bool enabled = true;
    /**
     * Repartitioning interval in Elastic-job instructions (2M in the
     * paper, i.e. 1% of its 200M-instruction jobs). The cumulative
     * X% bound is only checked at this granularity, so keep the
     * interval a small fraction of the job length — a coarse
     * interval lets a steep victim overshoot the bound between
     * checkpoints.
     */
    InstCount intervalInstructions = 2'000'000;
    /** Never shrink an Elastic partition below this many ways. */
    unsigned minWays = 1;
    /**
     * Once cancelled for a job, never re-attempt stealing from it.
     * When false (default), stealing resumes once the cumulative
     * miss increase has decayed back under the slack — the partition
     * then oscillates just below the X% bound, recovering the most
     * capacity the bound allows (the behaviour Figure 8(a) shows).
     */
    bool permanentCancel = false;
};

/**
 * Tracks active Elastic(X) jobs and performs interval repartitioning.
 */
class ResourceStealingEngine
{
  public:
    ResourceStealingEngine(CmpSystem &sys,
                           const StealingConfig &config = StealingConfig());

    const StealingConfig &config() const { return config_; }

    /**
     * Begin stealing from @p job (it must be running pinned as an
     * Elastic job): attaches duplicate tags and registers the
     * interval checkpoint.
     */
    void activate(Job &job);

    /** Stop tracking @p job (completion); detaches duplicate tags. */
    void deactivate(Job &job);

    /**
     * Per-chunk hook from the simulation: checks whether @p job
     * crossed its next repartitioning checkpoint and, if so, performs
     * the steal / cancel logic.
     */
    void onQuantum(CoreId core, JobExecution *exec);

    std::uint64_t totalSteals() const { return steals_; }
    std::uint64_t totalCancels() const { return cancels_; }

    /** Ways currently stolen from @p job (0 if untracked). */
    unsigned stolenWays(const Job &job) const;

    /**
     * Whether a cancellation is currently in force for @p job — the
     * X% bound tripped and stealing has not (yet) resumed. While
     * true, every stolen way must have been returned (the
     * steal-return invariant the fault oracle checks).
     */
    bool cancelActive(const Job &job) const;

    /**
     * Telemetry: WayStolen / WayReturned / StealCancelled events.
     * The engine has no clock of its own; @p clock points at the
     * owning Simulation's virtual time (Simulation::clockPtr()).
     */
    void
    setTrace(TraceRecorder *trace, const Cycle *clock)
    {
        trace_ = trace;
        traceClock_ = clock;
    }

  private:
    struct Entry
    {
        Job *job;
        unsigned baselineWays;
        double slack;
        InstCount nextCheckpoint;
        unsigned stolen = 0;
        bool cancelled = false;
    };

    void repartition(Entry &entry, CoreId core);

    CmpSystem &sys_;
    StealingConfig config_;
    TraceRecorder *trace_ = nullptr;
    const Cycle *traceClock_ = nullptr;
    std::unordered_map<JobId, Entry> entries_;
    std::uint64_t steals_ = 0;
    std::uint64_t cancels_ = 0;
};

} // namespace cmpqos

#endif // CMPQOS_QOS_STEALING_HH
