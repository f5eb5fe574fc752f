#include "stealing.hh"

#include <memory>

#include "common/logging.hh"

namespace cmpqos
{

ResourceStealingEngine::ResourceStealingEngine(CmpSystem &sys,
                                               const StealingConfig &config)
    : sys_(sys), config_(config)
{
}

void
ResourceStealingEngine::activate(Job &job)
{
    if (!config_.enabled)
        return;
    cmpqos_assert(job.mode().mode == ExecutionMode::Elastic,
                  "stealing activated on non-Elastic job %d", job.id());
    cmpqos_assert(job.assignedCore != invalidCore,
                  "Elastic job %d not pinned", job.id());
    cmpqos_assert(job.exec() != nullptr, "job %d has no execution",
                  job.id());

    // Duplicate-tag set sampling period: every 8th set.
    constexpr unsigned dupTagSamplePeriod = 8;
    job.exec()->attachDuplicateTags(std::make_unique<DuplicateTagArray>(
        sys_.l2().config(), job.target().cacheWays, dupTagSamplePeriod));

    Entry e;
    e.job = &job;
    e.baselineWays = job.target().cacheWays;
    e.slack = job.mode().slack;
    e.nextCheckpoint =
        job.exec()->executed() + config_.intervalInstructions;
    entries_[job.id()] = e;
}

void
ResourceStealingEngine::deactivate(Job &job)
{
    auto it = entries_.find(job.id());
    if (it == entries_.end())
        return;
    // stolenWays reports the peak stolen (cancel resets the live count).
    job.stolenWays = std::max(job.stolenWays, it->second.stolen);
    job.stealingCancelled = it->second.cancelled;
    if (job.exec() != nullptr) {
        if (DuplicateTagArray *dup = job.exec()->duplicateTags())
            job.observedMissIncrease = dup->missIncrease();
        job.exec()->detachDuplicateTags();
    }
    entries_.erase(it);
}

unsigned
ResourceStealingEngine::stolenWays(const Job &job) const
{
    auto it = entries_.find(job.id());
    return it == entries_.end() ? 0 : it->second.stolen;
}

bool
ResourceStealingEngine::cancelActive(const Job &job) const
{
    auto it = entries_.find(job.id());
    return it != entries_.end() && it->second.cancelled;
}

void
ResourceStealingEngine::onQuantum(CoreId core, JobExecution *exec)
{
    if (exec == nullptr || entries_.empty())
        return;
    auto it = entries_.find(exec->id());
    if (it == entries_.end())
        return;
    Entry &e = it->second;
    if (exec->executed() < e.nextCheckpoint)
        return;
    e.nextCheckpoint += config_.intervalInstructions;
    repartition(e, core);
}

void
ResourceStealingEngine::repartition(Entry &e, CoreId core)
{
    Job &job = *e.job;
    DuplicateTagArray *dup = job.exec()->duplicateTags();
    cmpqos_assert(dup != nullptr, "tracked job %d lost its shadow tags",
                  job.id());

    if (e.cancelled && config_.permanentCancel)
        return;

    // Confidence guard: with set sampling, a low-L2-traffic job
    // accumulates counter statistics slowly, and acting on a handful
    // of sampled misses would make the X% bound pure noise. No steal
    // or cancel happens below this many shadow misses.
    constexpr std::uint64_t minShadowMisses = 64;
    if (dup->shadowMisses() < minShadowMisses)
        return;

    // Has stealing pushed the job past its slack?
    if (e.stolen > 0 && dup->exceedsSlack(e.slack)) {
        // Cancel: return all stolen ways at once. Record the
        // cumulative miss increase that tripped the X% bound.
        const unsigned returned = e.stolen;
        sys_.l2().setTargetWays(core, e.baselineWays);
        e.stolen = 0;
        e.cancelled = true;
        ++cancels_;
        job.stealingCancelled = true;
        job.cancelMissIncrease = dup->missIncrease();
        if (trace_ != nullptr && trace_->active()) {
            const Cycle t = traceClock_ != nullptr ? *traceClock_ : 0;
            TraceEvent r =
                traceEvent(TraceEventType::WayReturned, t, job.id());
            r.a = static_cast<std::uint64_t>(core);
            r.b = returned;
            trace_->emit(r);
            TraceEvent c =
                traceEvent(TraceEventType::StealCancelled, t, job.id());
            c.a = static_cast<std::uint64_t>(core);
            c.b = job.exec()->executed();
            c.x = job.cancelMissIncrease;
            trace_->emit(c);
        }
        return;
    }
    if (e.cancelled) {
        // Non-permanent cancel: hold until the cumulative increase
        // decays below the slack, then resume stealing.
        if (dup->missIncrease() >= e.slack * 0.75)
            return;
        e.cancelled = false;
    }

    // Past saturation the miss-rate criterion is no longer a safe CPI
    // bound; hold the current partition.
    if (sys_.bandwidth()->saturated(core))
        return;

    const unsigned current = sys_.l2().targetWays(core);
    if (current > config_.minWays) {
        sys_.l2().setTargetWays(core, current - 1);
        ++e.stolen;
        ++steals_;
        job.stolenWays = std::max(job.stolenWays, e.stolen);
        if (trace_ != nullptr && trace_->active()) {
            TraceEvent s = traceEvent(
                TraceEventType::WayStolen,
                traceClock_ != nullptr ? *traceClock_ : 0, job.id());
            s.a = static_cast<std::uint64_t>(core);
            s.b = e.stolen;
            s.x = dup->missIncrease();
            trace_->emit(s);
        }
    }
}

} // namespace cmpqos
