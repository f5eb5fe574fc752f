#include "scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpqos
{

Scheduler::Scheduler(Simulation &sim, CmpSystem &sys)
    : sim_(sim), sys_(sys),
      reservedOn_(static_cast<std::size_t>(sys.numCores()), invalidJob)
{
}

JobId
Scheduler::reservedOccupant(CoreId core) const
{
    cmpqos_assert(core >= 0 && core < sys_.numCores(), "bad core");
    return reservedOn_[static_cast<std::size_t>(core)];
}

int
Scheduler::reservedCores() const
{
    int n = 0;
    for (JobId j : reservedOn_)
        if (j != invalidJob)
            ++n;
    return n;
}

CoreId
Scheduler::pickUnreservedCore(CoreId exclude) const
{
    // The unreserved core with the shortest run queue; ties go to the
    // lowest index, so an idle core wins whenever there is one.
    CoreId best = invalidCore;
    std::size_t best_len = 0;
    for (int c = 0; c < sys_.numCores(); ++c) {
        if (c == exclude ||
            reservedOn_[static_cast<std::size_t>(c)] != invalidJob)
            continue;
        const std::size_t len = sys_.queueLength(c);
        if (best == invalidCore || len < best_len) {
            best = c;
            best_len = len;
        }
    }
    return best;
}

void
Scheduler::markPoolCore(CoreId core)
{
    sys_.l2().setTargetWays(core, 0);
    sys_.l2().setCoreClass(core, CoreClass::Opportunistic);
    if (sys_.config().bandwidthPartitioning)
        sys_.bandwidth()->setShare(core, 0);
}

void
Scheduler::evictPoolJobs(CoreId core)
{
    while (sys_.queueLength(core) > 0) {
        JobExecution *exec = sys_.runningJob(core);
        sys_.dequeueJob(exec);
        // Find its policy-side job among pool jobs.
        auto it = std::find_if(poolJobs_.begin(), poolJobs_.end(),
                               [&](Job *j) { return j->exec() == exec; });
        cmpqos_assert(it != poolJobs_.end(),
                      "pool core hosted an unknown job");
        Job *job = *it;

        // Any other unreserved core takes the migrant.
        const CoreId dest = pickUnreservedCore(core);
        if (dest == invalidCore) {
            // Nowhere to run: park until a core frees up.
            poolJobs_.erase(it);
            parked_.push_back(job);
            job->setState(JobState::Waiting);
        } else {
            markPoolCore(dest);
            sim_.startJobOn(dest, exec);
        }
    }
}

CoreId
Scheduler::startReserved(Job &job)
{
    const CoreId core = pickUnreservedCore();
    if (core == invalidCore)
        return invalidCore;

    // Way headroom check: reserved targets may transiently collide if
    // a predecessor overran its slot; defer rather than over-commit.
    unsigned reserved_ways = 0;
    for (int c = 0; c < sys_.numCores(); ++c) {
        if (reservedOn_[static_cast<std::size_t>(c)] != invalidJob)
            reserved_ways += sys_.l2().targetWays(c);
    }
    if (reserved_ways + job.target().cacheWays > sys_.l2().config().assoc)
        return invalidCore;

    // Unhook a promoted job from the pool (it may be parked rather
    // than running); for a job that never joined it this is a no-op.
    sys_.dequeueJob(job.exec());
    std::erase(poolJobs_, &job);
    std::erase(parked_, &job);

    evictPoolJobs(core);
    sys_.l2().setTargetWays(core, job.target().cacheWays);
    sys_.l2().setCoreClass(core, CoreClass::Reserved);
    if (sys_.config().bandwidthPartitioning)
        sys_.bandwidth()->setShare(core, job.target().bandwidthPercent);
    reservedOn_[static_cast<std::size_t>(core)] = job.id();
    job.assignedCore = core;
    job.setState(JobState::Running);
    sim_.startJobOn(core, job.exec());
    return core;
}

void
Scheduler::startOpportunistic(Job &job)
{
    poolJobs_.push_back(&job);
    const CoreId core = pickUnreservedCore();
    if (core == invalidCore) {
        // Every core is reserved right now; wait for one to free.
        poolJobs_.pop_back();
        parked_.push_back(&job);
        job.setState(JobState::Waiting);
        return;
    }
    markPoolCore(core);
    job.setState(JobState::Running);
    sim_.startJobOn(core, job.exec());
}

void
Scheduler::demoteToPool(Job &job)
{
    const CoreId core = job.assignedCore;
    cmpqos_assert(core != invalidCore &&
                      reservedOn_[static_cast<std::size_t>(core)] ==
                          job.id(),
                  "demoteToPool on a job that is not pinned");
    reservedOn_[static_cast<std::size_t>(core)] = invalidJob;
    sys_.dequeueJob(job.exec());
    job.assignedCore = invalidCore;

    // The freed core becomes a pool member; re-place the job there
    // (it keeps its cached blocks, now owned by a pool-class core).
    markPoolCore(core);
    poolJobs_.push_back(&job);
    sim_.startJobOn(core, job.exec());
    unpark();
}

void
Scheduler::jobFinished(Job &job)
{
    const CoreId core = job.assignedCore;
    if (core != invalidCore &&
        reservedOn_[static_cast<std::size_t>(core)] == job.id()) {
        reservedOn_[static_cast<std::size_t>(core)] = invalidJob;
        sys_.l2().releaseCore(core);
        if (sys_.config().bandwidthPartitioning)
            sys_.bandwidth()->setShare(core, 0);
    } else {
        std::erase(poolJobs_, &job);
        std::erase(parked_, &job); // cancelled while parked
    }
    job.setState(JobState::Completed);

    unpark();

    // Housekeeping: release empty unreserved cores, rebalance crowded
    // pool cores onto newly idle ones.
    for (int c = 0; c < sys_.numCores(); ++c) {
        if (reservedOn_[static_cast<std::size_t>(c)] != invalidJob)
            continue;
        if (sys_.queueLength(c) == 0) {
            // Steal one job from the most crowded pool core.
            CoreId crowded = invalidCore;
            std::size_t most = 1;
            for (int o = 0; o < sys_.numCores(); ++o) {
                if (o == c ||
                    reservedOn_[static_cast<std::size_t>(o)] != invalidJob)
                    continue;
                if (sys_.queueLength(o) > most) {
                    most = sys_.queueLength(o);
                    crowded = o;
                }
            }
            if (crowded != invalidCore) {
                JobExecution *mover = sys_.runningJob(crowded);
                sys_.dequeueJob(mover);
                markPoolCore(c);
                sim_.startJobOn(c, mover);
            } else {
                sys_.l2().releaseCore(c);
            }
        }
    }
}

void
Scheduler::unpark()
{
    while (!parked_.empty()) {
        const CoreId core = pickUnreservedCore();
        if (core == invalidCore)
            return;
        Job *job = parked_.front();
        parked_.pop_front();
        poolJobs_.push_back(job);
        markPoolCore(core);
        job->setState(JobState::Running);
        sim_.startJobOn(core, job->exec());
    }
}

} // namespace cmpqos
