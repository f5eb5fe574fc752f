/**
 * @file
 * The job scheduler that sits under the LAC (Section 5): Strict and
 * Elastic jobs are pinned one-per-core (timesharing would endanger
 * their deadlines); Opportunistic jobs are time-shared on cores not
 * assigned to Strict/Elastic jobs. Core partition classes and way
 * targets in the shared L2 are maintained accordingly.
 */

#ifndef CMPQOS_QOS_SCHEDULER_HH
#define CMPQOS_QOS_SCHEDULER_HH

#include <deque>
#include <vector>

#include "common/types.hh"
#include "qos/job.hh"
#include "sim/cmp_system.hh"
#include "sim/simulation.hh"

namespace cmpqos
{

/**
 * Maps accepted jobs onto cores and keeps the L2 allocation table in
 * sync with what is running where.
 */
class Scheduler
{
  public:
    Scheduler(Simulation &sim, CmpSystem &sys);

    /**
     * Start a Strict/Elastic job at its reserved slot: pick a core
     * with no reserved occupant (migrating opportunistic jobs off it
     * if needed), set the core's way target, and pin the job. A job
     * still in the opportunistic pool is unhooked from it first.
     * @return the chosen core, or invalidCore if no core or not
     *         enough ways were free (the caller retries shortly).
     */
    CoreId startReserved(Job &job);

    /** Start an opportunistic job now on a pool core (or park it). */
    void startOpportunistic(Job &job);

    /**
     * Switch an auto-downgraded job back to Strict at its reserved
     * slot (Section 3.4): the same pin path as startReserved.
     */
    CoreId promote(Job &job) { return startReserved(job); }

    /**
     * Manual downgrade to Opportunistic while running (Section 3.3):
     * release the job's reserved core and way target and move it
     * into the time-shared pool.
     */
    void demoteToPool(Job &job);

    /** Tear down a finished job's placement and rebalance the pool. */
    void jobFinished(Job &job);

    /** Number of cores currently hosting a reserved job. */
    int reservedCores() const;

    /** Jobs accepted but waiting for a free pool core. */
    std::size_t parkedCount() const { return parked_.size(); }

    /** Reserved occupant of a core (invalidJob if none). */
    JobId reservedOccupant(CoreId core) const;

  private:
    /** Non-reserved core other than @p exclude with the shortest
     *  run queue; invalidCore if there is none. */
    CoreId pickUnreservedCore(CoreId exclude = invalidCore) const;

    /** Mark a core as an opportunistic pool member in the L2. */
    void markPoolCore(CoreId core);

    /** Move opportunistic jobs off @p core onto other pool cores. */
    void evictPoolJobs(CoreId core);

    /** Try to place parked opportunistic jobs. */
    void unpark();

    Simulation &sim_;
    CmpSystem &sys_;
    std::vector<JobId> reservedOn_;
    std::vector<Job *> poolJobs_;
    std::deque<Job *> parked_;
};

} // namespace cmpqos

#endif // CMPQOS_QOS_SCHEDULER_HH
