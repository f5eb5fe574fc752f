#include "framework.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "workload/benchmark.hh"

namespace cmpqos
{

FrameworkConfig
FrameworkConfig::forModeConfig(ModeConfig config)
{
    FrameworkConfig fc;
    switch (config) {
      case ModeConfig::AllStrict:
      case ModeConfig::Hybrid1:
        break;
      case ModeConfig::Hybrid2:
        fc.stealing.enabled = true;
        break;
      case ModeConfig::AllStrictAutoDown:
        fc.admission.autoDowngrade = true;
        break;
      case ModeConfig::EqualPart:
        fc.policy = SystemPolicy::EqualPart;
        break;
    }
    return fc;
}

double
WorkloadResult::deadlineHitRate(bool qos_jobs_only) const
{
    std::size_t counted = 0;
    std::size_t hit = 0;
    for (const auto &j : jobs) {
        if (qos_jobs_only && !j.countsForQos())
            continue;
        ++counted;
        if (j.deadlineMet)
            ++hit;
    }
    return counted == 0 ? 1.0
                        : static_cast<double>(hit) /
                              static_cast<double>(counted);
}

double
WorkloadResult::throughputVs(const WorkloadResult &base) const
{
    return makespan <= 0.0 ? 0.0 : base.makespan / makespan;
}

double
WorkloadResult::lacOccupancy() const
{
    return makespan <= 0.0
               ? 0.0
               : static_cast<double>(lacOverheadCycles) / makespan;
}

std::vector<double>
WorkloadResult::wallClocks(ExecutionMode mode) const
{
    std::vector<double> v;
    for (const auto &j : jobs)
        if (j.mode == mode)
            v.push_back(j.wallClock);
    return v;
}

QosFramework::QosFramework(const FrameworkConfig &config)
    : config_(config), sys_(config.cmp), sim_(sys_),
      lac_(config.admission), sched_(sim_, sys_),
      steal_(sys_, config.stealing), rng_(config.seed)
{
    sim_.setCompletionHandler(
        [this](JobExecution *exec) { onCompletion(exec); });
    sim_.setQuantumHook([this](CoreId core, JobExecution *exec) {
        steal_.onQuantum(core, exec);
    });

    if (config_.policy == SystemPolicy::EqualPart) {
        // Equal partition among cores, no admission control: the
        // EqualPart baseline of Table 2.
        const unsigned ways_each =
            sys_.l2().config().assoc /
            static_cast<unsigned>(sys_.numCores());
        for (int c = 0; c < sys_.numCores(); ++c) {
            sys_.l2().setTargetWays(c, ways_each);
            sys_.l2().setCoreClass(c, CoreClass::Reserved);
        }
    }
}

void
QosFramework::setTrace(TraceRecorder *trace)
{
    trace_ = trace;
    sim_.setTrace(trace);
    lac_.setTrace(trace);
    steal_.setTrace(trace, sim_.clockPtr());
    sys_.l2().setTrace(trace, sim_.clockPtr());
}

namespace
{

/** Retry delay when a reserved start or a promotion finds no free
 *  core yet. */
constexpr Cycle startRetryDelay = 500'000;

// Guarded: concurrent node workers (src/cluster) may calibrate
// different benchmarks at once. Annotated cmpqos::Mutex so the
// thread-safety analysis (and qoslint lockorder) can see the
// calibration cache like every other guarded structure.
Mutex calibMu;
std::map<std::string, double> calibMemo CMPQOS_GUARDED_BY(calibMu);

} // namespace

double
QosFramework::soloCpi(const std::string &benchmark, unsigned ways,
                      const CmpConfig &cmp)
{
    const std::string key =
        benchmark + "/" + std::to_string(ways) + "/" +
        std::to_string(cmp.l2.sizeBytes) + "/" +
        std::to_string(cmp.l2.assoc);
    {
        MutexLock lock(calibMu);
        auto it = calibMemo.find(key);
        if (it != calibMemo.end())
            return it->second;
    }

    CmpConfig cfg = cmp;
    cfg.chunkInstructions = 50'000;
    const BenchmarkProfile &prof = BenchmarkRegistry::get(benchmark);
    // Enough instructions for ~150K L2 accesses of steady state.
    const InstCount n = static_cast<InstCount>(
        std::max(2e6, 150'000.0 / prof.h2));
    const double cpi = runSolo(cfg, prof, ways, n, 0xCA11Bu).cpi;
    MutexLock lock(calibMu);
    calibMemo[key] = cpi;
    return cpi;
}

Cycle
QosFramework::maxWallClockFor(const JobRequest &request,
                              InstCount instructions) const
{
    const BenchmarkProfile &prof =
        BenchmarkRegistry::get(request.benchmark);
    const double cpi = soloCpi(request.benchmark, request.ways, config_.cmp);
    // Warm-up allowance: the job's standing working set must be
    // fetched once (first-touch misses the steady-state CPI does not
    // charge). Bounded by the partition size and by the largest
    // finite reuse distance the benchmark exhibits.
    const std::uint64_t capacity_blocks =
        static_cast<std::uint64_t>(request.ways) *
        config_.cmp.l2.numSets();
    const double warm_blocks = static_cast<double>(std::min(
        capacity_blocks, prof.l2Profile.maxFiniteDistance()));
    const double warm_cycles =
        warm_blocks * static_cast<double>(config_.cmp.mem.accessLatency);
    return static_cast<Cycle>(std::ceil(
        (static_cast<double>(instructions) * cpi + warm_cycles) *
        config_.wallClockMargin));
}

Job *
QosFramework::createJob(const JobRequest &request, InstCount instructions)
{
    const JobId id = static_cast<JobId>(jobs_.size());
    QosTarget target;
    target.cores = request.cores;
    target.cacheWays = request.ways;
    target.bandwidthPercent = request.bandwidthPercent;
    target.hasTimeslot = true;
    target.maxWallClock = maxWallClockFor(request, instructions);
    target.relativeDeadline = static_cast<Cycle>(
        std::ceil(static_cast<double>(target.maxWallClock) *
                  request.deadlineFactor));
    target.validate(static_cast<unsigned>(sys_.numCores()),
                    sys_.l2().config().assoc);

    auto job = std::make_unique<Job>(id, request.benchmark, instructions,
                                     target, request.mode);
    Job *raw = job.get();
    jobs_.push_back(std::move(job));
    byId_[id] = raw;
    return raw;
}

void
QosFramework::admitAndPlace(Job *job)
{
    const Cycle now = sim_.now();

    if (config_.policy == SystemPolicy::EqualPart) {
        // No admission control: always accept, default time-sharing.
        job->arrivalTime = now;
        job->acceptTime = now;
        job->deadline = now + job->target().relativeDeadline;
        job->setState(JobState::Running);
        job->attachExec(std::make_unique<JobExecution>(
            job->id(), BenchmarkRegistry::get(job->benchmark()),
            job->instructions(), rng_.next(), config_.cmp.traceMode));
        sim_.startJobOn(sys_.leastLoadedCore(), job->exec());
        return;
    }

    const AdmissionDecision d = lac_.submit(*job, now);
    if (!d.accepted)
        return;

    job->attachExec(std::make_unique<JobExecution>(
        job->id(), BenchmarkRegistry::get(job->benchmark()),
        job->instructions(), rng_.next(), config_.cmp.traceMode));
    placeAccepted(job);
}

void
QosFramework::placeAccepted(Job *job)
{
    if (job->mode().mode == ExecutionMode::Opportunistic) {
        sched_.startOpportunistic(*job);
        return;
    }

    if (job->autoDowngraded) {
        // Run opportunistically now; switch back to Strict at the
        // reserved (late) slot if still unfinished.
        sched_.startOpportunistic(*job);
        sim_.schedule(job->slotStart,
                      [this, job]() { tryPromote(job); },
                      "promote-" + std::to_string(job->id()));
        return;
    }

    if (job->slotStart <= sim_.now()) {
        tryStartReserved(job);
    } else {
        sim_.schedule(job->slotStart,
                      [this, job]() { tryStartReserved(job); },
                      "start-" + std::to_string(job->id()));
    }
}

void
QosFramework::tryStartReserved(Job *job)
{
    if (job->state() == JobState::Completed ||
        job->state() == JobState::Terminated)
        return;
    // The job may have been manually downgraded to Opportunistic
    // (and placed) since this start event was scheduled.
    if (job->mode().mode == ExecutionMode::Opportunistic)
        return;
    const CoreId core = sched_.startReserved(*job);
    if (core == invalidCore) {
        // Predecessor still draining; retry shortly.
        sim_.scheduleAfter(startRetryDelay,
                           [this, job]() { tryStartReserved(job); },
                           "retry-start-" + std::to_string(job->id()));
        return;
    }
    if (job->mode().mode == ExecutionMode::Elastic) {
        job->exec()->memPriority = true;
        steal_.activate(*job);
    }
    scheduleEnforcement(job);
}

void
QosFramework::scheduleEnforcement(Job *job)
{
    if (!config_.enforceMaxWallClock || !job->target().hasTimeslot)
        return;
    // Grace period before enforcement, as a fraction of tw.
    constexpr double enforcementGraceFraction = 0.02;
    const Cycle tw = job->target().maxWallClock;
    const Cycle allowance = tw + static_cast<Cycle>(
        static_cast<double>(tw) * enforcementGraceFraction);
    sim_.scheduleAfter(allowance, [this, job]() {
        if (job->state() != JobState::Running ||
            !job->runsReservedNow() || job->exec()->complete())
            return;
        ++enforcementKills_;
        removeJob(job, JobState::Terminated, "max-wall-clock exceeded");
    }, "enforce-" + std::to_string(job->id()));
}

void
QosFramework::removeJob(Job *job, JobState final_state,
                        const char *cause)
{
    if (job->exec() != nullptr) {
        sys_.dequeueJob(job->exec());
        if (job->exec()->startCycle >= 0.0 &&
            job->exec()->endCycle < 0.0) {
            // Record where it stopped for wall-clock accounting.
            job->exec()->endCycle = static_cast<double>(sim_.now());
        }
        job->exec()->retire();
    }
    if (config_.policy != SystemPolicy::EqualPart) {
        if (job->mode().mode == ExecutionMode::Elastic)
            steal_.deactivate(*job);
        sched_.jobFinished(*job);
        lac_.cancel(*job);
    }
    job->setState(final_state);

    if (trace_ != nullptr && trace_->active() &&
        final_state == JobState::Terminated) {
        TraceEvent e = traceEvent(TraceEventType::JobTerminated,
                                  sim_.now(), job->id());
        e.setName(cause);
        trace_->emit(e);
    }

    if (pendingCount_ > 0)
        --pendingCount_;
    if (spec_ != nullptr) {
        // Terminated accepted jobs still count toward workload
        // completion so the run can end.
        auto it = std::find(acceptedJobs_.begin(), acceptedJobs_.end(),
                            job);
        if (it != acceptedJobs_.end()) {
            ++completedAccepted_;
            if (completedAccepted_ == spec_->jobs.size())
                sim_.requestStop();
        }
    }
}

bool
QosFramework::cancelJob(Job &job)
{
    if (job.state() != JobState::Waiting &&
        job.state() != JobState::Running)
        return false;
    removeJob(&job, JobState::Terminated);
    return true;
}

void
QosFramework::tryPromote(Job *job)
{
    if (job->state() == JobState::Completed ||
        job->state() == JobState::Terminated || job->promotedToStrict)
        return;
    const CoreId core = sched_.promote(*job);
    if (core == invalidCore) {
        sim_.scheduleAfter(startRetryDelay,
                           [this, job]() { tryPromote(job); },
                           "retry-promote-" + std::to_string(job->id()));
        return;
    }
    job->promotedToStrict = true;
    job->promotionTime = sim_.now();
    if (trace_ != nullptr && trace_->active()) {
        TraceEvent e = traceEvent(TraceEventType::ModePromoted,
                                  sim_.now(), job->id());
        e.a = static_cast<std::uint64_t>(core);
        trace_->emit(e);
    }
    scheduleEnforcement(job);
}

void
QosFramework::onCompletion(JobExecution *exec)
{
    auto it = byId_.find(exec->id());
    cmpqos_assert(it != byId_.end(), "completion for unknown job %d",
                  exec->id());
    Job *job = it->second;

    if (config_.policy == SystemPolicy::EqualPart) {
        job->setState(JobState::Completed);
    } else {
        if (job->mode().mode == ExecutionMode::Elastic)
            steal_.deactivate(*job);
        sched_.jobFinished(*job);
        // Early completion reclaims the rest of the timeslot so new
        // jobs can be accepted sooner (Section 3.4).
        lac_.releaseEarly(*job, sim_.now());
    }

    if (trace_ != nullptr && trace_->active()) {
        const bool met = job->deadlineMet();
        TraceEvent e = traceEvent(met ? TraceEventType::DeadlineHit
                                      : TraceEventType::DeadlineMiss,
                                  sim_.now(), job->id());
        e.a = job->deadline;
        e.b = static_cast<std::uint64_t>(job->mode().mode);
        e.x = job->wallClock();
        trace_->emit(e);
    }

    if (pendingCount_ > 0)
        --pendingCount_;

    if (spec_ != nullptr) {
        ++completedAccepted_;
        if (completedAccepted_ == spec_->jobs.size())
            sim_.requestStop();
    }
}

bool
QosFramework::downgradeJob(Job &job, const ModeSpec &to)
{
    if (config_.policy == SystemPolicy::EqualPart)
        return false;
    if (job.state() != JobState::Waiting &&
        job.state() != JobState::Running)
        return false;
    if (job.autoDowngraded)
        return false; // the system already downgraded it

    auto rank = [](ExecutionMode m) {
        switch (m) {
          case ExecutionMode::Strict: return 2;
          case ExecutionMode::Elastic: return 1;
          default: return 0;
        }
    };
    if (rank(to.mode) >= rank(job.mode().mode))
        return false; // downgrades only

    const Cycle now = sim_.now();

    if (to.mode == ExecutionMode::Elastic) {
        // Strict -> Elastic(X): interchangeable only while the
        // deadline slack covers the X% slowdown (Section 3.3).
        const Cycle tw = job.target().maxWallClock;
        const Cycle slot_ref = std::max(job.slotStart, now);
        if (to.slack >
            maxInterchangeableElasticSlack(slot_ref, job.deadline, tw))
            return false;
        const Cycle duration = to.reservationDuration(tw);
        if (job.slotStart + duration > job.deadline)
            return false;

        // Extend the reservation in place; roll back if it collides
        // with a later reservation.
        const ResourceVector req{job.target().cores,
                                 job.target().cacheWays,
                                 job.target().bandwidthPercent};
        ResourceTimeline &tl = lac_.timeline();
        tl.cancel(job.id());
        if (!tl.fitsThroughout(job.slotStart, job.slotStart + duration,
                               req)) {
            tl.reserve(job.id(), job.slotStart, job.slotEnd, req);
            return false;
        }
        tl.reserve(job.id(), job.slotStart, job.slotStart + duration,
                   req);
        job.slotEnd = job.slotStart + duration;
        const ExecutionMode from = job.mode().mode;
        job.setMode(to);
        if (job.state() == JobState::Running) {
            job.exec()->memPriority = true;
            steal_.activate(job);
        }
        if (trace_ != nullptr && trace_->active()) {
            TraceEvent e = traceEvent(TraceEventType::ModeDowngrade,
                                      now, job.id());
            e.a = static_cast<std::uint64_t>(from);
            e.b = static_cast<std::uint64_t>(to.mode);
            e.x = to.slack;
            e.setName("manual");
            trace_->emit(e);
        }
        return true;
    }

    // -> Opportunistic: forfeit the reservation; unused resources
    // become available to new admissions immediately.
    if (job.mode().mode == ExecutionMode::Elastic &&
        job.state() == JobState::Running)
        steal_.deactivate(job);
    lac_.cancel(job);
    const bool was_running = job.state() == JobState::Running &&
                             job.assignedCore != invalidCore;
    const ExecutionMode from = job.mode().mode;
    job.setMode(to);
    if (was_running) {
        job.exec()->memPriority = false;
        sched_.demoteToPool(job);
    } else {
        sched_.startOpportunistic(job);
    }
    if (trace_ != nullptr && trace_->active()) {
        TraceEvent e =
            traceEvent(TraceEventType::ModeDowngrade, now, job.id());
        e.a = static_cast<std::uint64_t>(from);
        e.b = static_cast<std::uint64_t>(to.mode);
        e.x = to.slack;
        e.setName("manual");
        trace_->emit(e);
    }
    return true;
}

AdmissionDecision
QosFramework::probeJob(const JobRequest &request,
                       InstCount instructions) const
{
    QosTarget target;
    target.cores = request.cores;
    target.cacheWays = request.ways;
    target.bandwidthPercent = request.bandwidthPercent;
    target.hasTimeslot = true;
    target.maxWallClock = maxWallClockFor(request, instructions);
    target.relativeDeadline = static_cast<Cycle>(
        std::ceil(static_cast<double>(target.maxWallClock) *
                  request.deadlineFactor));
    Job shadow(-1, request.benchmark, instructions, target,
               request.mode);
    if (config_.policy == SystemPolicy::EqualPart) {
        AdmissionDecision d;
        d.accepted = true;
        d.slotStart = sim_.now();
        d.reason = "no admission control";
        return d;
    }
    return lac_.probe(shadow, sim_.now());
}

Job *
QosFramework::submitJob(const JobRequest &request, InstCount instructions)
{
    Job *job = createJob(request, instructions);
    admitAndPlace(job);
    if (job->state() == JobState::Rejected)
        return nullptr;
    ++pendingCount_;
    return job;
}

void
QosFramework::runToCompletion()
{
    sim_.run();
}

JobOutcome
QosFramework::outcomeOf(const Job &job) const
{
    JobOutcome o;
    o.id = job.id();
    o.benchmark = job.benchmark();
    o.mode = job.mode().mode;
    o.elasticSlack = job.mode().slack;
    o.arrival = job.arrivalTime;
    o.accept = job.acceptTime;
    o.slotStart = job.slotStart;
    o.deadline = job.deadline;
    o.autoDowngraded = job.autoDowngraded;
    o.promotedToStrict = job.promotedToStrict;
    o.promotionTime = job.promotionTime;
    o.stolenWays = job.stolenWays;
    o.stealingCancelled = job.stealingCancelled;
    o.observedMissIncrease = job.observedMissIncrease;
    o.cancelMissIncrease = job.cancelMissIncrease;
    if (job.exec() != nullptr) {
        o.startCycle = job.exec()->startCycle;
        o.endCycle = job.exec()->endCycle;
        o.wallClock = job.exec()->wallClock();
        o.missRate = job.exec()->missRate();
        o.cpi = job.exec()->cpi();
    }
    if (job.state() == JobState::Completed)
        o.deadlineMet = job.deadlineMet();
    return o;
}

WorkloadResult
QosFramework::runWorkload(const WorkloadSpec &spec)
{
    cmpqos_assert(spec_ == nullptr && jobs_.empty(),
                  "QosFramework instances are single-use per workload");
    cmpqos_assert(!spec.jobs.empty(), "workload has no jobs");
    spec_ = &spec;
    rng_ = Rng(spec.seed);

    // Mean candidate inter-arrival time: a fraction of the average
    // job wall-clock time (Section 6's 128-CMP-server load).
    double tw_sum = 0.0;
    for (const auto &r : spec.jobs)
        tw_sum += static_cast<double>(
            maxWallClockFor(r, spec.jobInstructions));
    const double mean_ia = tw_sum / static_cast<double>(spec.jobs.size()) *
                           spec.interArrivalFraction;

    Rng arrival_rng(spec.seed ^ 0xfeedfaceULL);

    // Self-rescheduling arrival process. Candidates carry the mode /
    // deadline of the next unfilled accepted slot, so the accepted
    // mix matches Table 2/3 exactly (see DESIGN.md).
    std::uint64_t slot_rejections = 0;
    std::function<void()> arrival = [&]() {
        if (acceptedCount_ >= spec.jobs.size())
            return;
        const JobRequest &req = spec.jobs[acceptedCount_];
        ++candidates_;
        Job *job = createJob(req, spec.jobInstructions);
        admitAndPlace(job);
        if (job->state() == JobState::Rejected) {
            ++rejectedCandidates_;
            if (++slot_rejections > 100'000) {
                cmpqos_fatal(
                    "workload '%s' stuck: accepted-slot %zu "
                    "(benchmark %s, mode %s, deadline %.2f tw) was "
                    "rejected 100000 times — the request can never "
                    "be admitted (e.g. reservation longer than its "
                    "deadline window)",
                    spec.name.c_str(), acceptedCount_,
                    req.benchmark.c_str(),
                    executionModeName(req.mode.mode),
                    req.deadlineFactor);
            }
        } else {
            slot_rejections = 0;
            ++acceptedCount_;
            acceptedJobs_.push_back(job);
        }
        const Cycle next =
            sim_.now() + 1 +
            static_cast<Cycle>(arrival_rng.exponential(mean_ia));
        sim_.schedule(next, arrival, "arrival");
    };
    sim_.schedule(0, arrival, "arrival");

    sim_.run();

    cmpqos_assert(completedAccepted_ == spec.jobs.size(),
                  "workload ended with %zu of %zu accepted jobs complete",
                  completedAccepted_, spec.jobs.size());

    WorkloadResult result;
    result.workloadName = spec.name;
    result.config = spec.config;
    result.candidatesSubmitted = candidates_;
    result.rejected = rejectedCandidates_;
    result.lacOverheadCycles = lac_.overheadCycles();
    for (Job *job : acceptedJobs_) {
        result.jobs.push_back(outcomeOf(*job));
        result.makespan =
            std::max(result.makespan, job->exec()->endCycle);
    }
    spec_ = nullptr;
    return result;
}

} // namespace cmpqos
