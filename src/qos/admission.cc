#include "admission.hh"

#include "common/logging.hh"

namespace cmpqos
{

LocalAdmissionController::LocalAdmissionController(
    const AdmissionConfig &config)
    : config_(config), timeline_(config.capacity)
{
}

AdmissionDecision
LocalAdmissionController::decide(const Job &job, Cycle now) const
{
    const QosTarget &t = job.target();
    AdmissionDecision d;

    if (job.mode().mode == ExecutionMode::Opportunistic) {
        // Accepted whenever some core is not taken up by a
        // Strict/Elastic reservation right now.
        const ResourceVector used = timeline_.reservedAt(now);
        if (used.cores < config_.capacity.cores) {
            d.accepted = true;
            d.slotStart = now;
            d.slotEnd = maxCycle;
            d.reason = "spare resources available";
        } else {
            d.reason = "no spare cores for opportunistic job";
        }
        return d;
    }

    const ResourceVector req{t.cores, t.cacheWays, t.bandwidthPercent};
    if (!req.fitsWithin(config_.capacity)) {
        d.reason = "demand exceeds node capacity";
        return d;
    }

    if (!t.hasTimeslot) {
        // No timeslot: resources are held for the job's lifetime.
        const Cycle s = timeline_.findEarliestStart(
            req, maxCycle - now, now, maxCycle - 1);
        if (s == maxCycle) {
            d.reason = "no lifetime slot available";
            return d;
        }
        d.accepted = true;
        d.slotStart = s;
        d.slotEnd = maxCycle;
        d.reason = "lifetime reservation";
        return d;
    }

    const Cycle tw = t.maxWallClock;
    const Cycle deadline = now + t.relativeDeadline;

    // Minimum deadline slack (as a fraction of tw) for a Strict job to
    // be auto-downgraded. The paper downgrades only moderate (2 tw)
    // and relaxed (3 tw) jobs, not tight (1.05 tw) ones; a 0.5
    // threshold reproduces that policy.
    constexpr double autoDowngradeMinSlackFraction = 0.5;
    const Cycle min_slack = static_cast<Cycle>(
        autoDowngradeMinSlackFraction * static_cast<double>(tw));
    if (config_.autoDowngrade && job.mode().mode == ExecutionMode::Strict &&
        autoDowngradeEligible(now, deadline, tw) &&
        deadlineSlack(now, deadline, tw) >= min_slack) {
        // Reserve the *latest* feasible slot and let the job run
        // opportunistically until the slot begins.
        const Cycle s =
            timeline_.findLatestStart(req, tw, now, deadline - tw);
        if (s != maxCycle) {
            d.accepted = true;
            d.autoDowngraded = true;
            d.slotStart = s;
            d.slotEnd = s + tw;
            d.reason = "auto-downgraded; late slot reserved";
            return d;
        }
        d.reason = "no slot before deadline (auto-downgrade)";
        return d;
    }

    const Cycle duration = job.mode().reservationDuration(tw);
    if (deadline < now + duration) {
        d.reason = "deadline tighter than reservation duration";
        return d;
    }
    const Cycle s = timeline_.findEarliestStart(req, duration, now,
                                                deadline - duration);
    if (s == maxCycle) {
        d.reason = "no slot before deadline";
        return d;
    }
    d.accepted = true;
    d.slotStart = s;
    d.slotEnd = s + duration;
    d.reason = "earliest-fit slot reserved";
    return d;
}

AdmissionDecision
LocalAdmissionController::probe(const Job &job, Cycle now) const
{
    return decide(job, now);
}

AdmissionDecision
LocalAdmissionController::submit(Job &job, Cycle now)
{
    // Cost model: one admission test scans the reservation list, at
    // 25 cycles per reservation scanned.
    constexpr Cycle costPerReservationScanned = 25;
    overheadCycles_ +=
        config_.costPerSubmission +
        costPerReservationScanned *
            static_cast<Cycle>(timeline_.reservations().size());

    job.arrivalTime = now;
    job.deadline = job.target().hasTimeslot
                       ? now + job.target().relativeDeadline
                       : maxCycle;

    AdmissionDecision d = decide(job, now);
    if (!d.accepted) {
        ++rejected_;
        job.setState(JobState::Rejected);
        if (trace_ != nullptr && trace_->active()) {
            TraceEvent e =
                traceEvent(TraceEventType::JobRejected, now, job.id());
            e.setName(d.reason);
            trace_->emit(e);
        }
        return d;
    }

    ++accepted_;
    job.acceptTime = now;
    job.slotStart = d.slotStart;
    job.slotEnd = d.slotEnd;
    job.autoDowngraded = d.autoDowngraded;
    job.setState(JobState::Waiting);

    if (job.mode().reservesResources()) {
        const ResourceVector req{job.target().cores,
                                 job.target().cacheWays,
                                 job.target().bandwidthPercent};
        timeline_.reserve(job.id(), d.slotStart, d.slotEnd, req);
    }
    if (trace_ != nullptr && trace_->active()) {
        TraceEvent e =
            traceEvent(TraceEventType::JobAdmitted, now, job.id());
        e.a = d.slotStart;
        e.b = d.slotEnd;
        e.x = static_cast<double>(job.deadline);
        e.setName(job.benchmark());
        trace_->emit(e);
        if (d.autoDowngraded) {
            TraceEvent m =
                traceEvent(TraceEventType::ModeDowngrade, now, job.id());
            m.a = static_cast<std::uint64_t>(ExecutionMode::Strict);
            m.b = static_cast<std::uint64_t>(ExecutionMode::Opportunistic);
            m.setName("auto");
            trace_->emit(m);
        }
    }
    return d;
}

void
LocalAdmissionController::releaseEarly(const Job &job, Cycle now)
{
    timeline_.releaseFrom(job.id(), now);
}

void
LocalAdmissionController::cancel(const Job &job)
{
    timeline_.cancel(job.id());
}

} // namespace cmpqos
