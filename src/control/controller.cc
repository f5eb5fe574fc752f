#include "controller.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "cache/partitioned_cache.hh"
#include "common/logging.hh"
#include "cpu/dvfs.hh"
#include "mem/bandwidth.hh"

namespace cmpqos
{

double
modelledEnergy(const ControllerConfig &config, double virtualCycles,
               int numCores, double dynWork)
{
    return config.staticPower * virtualCycles *
               static_cast<double>(numCores) +
           config.dynCoeff * dynWork;
}

NodeController::NodeController(const ControllerConfig &config)
    : config_(config)
{
}

void
NodeController::emitRetune(TraceRecorder *trace, Cycle now, JobId job,
                           const char *knob, std::uint64_t oldValue,
                           std::uint64_t newValue, double slack)
{
    ++tallies_.retunes;
    if (trace == nullptr || !trace->active())
        return;
    TraceEvent e =
        traceEvent(TraceEventType::ControllerRetune, now, job);
    e.a = oldValue;
    e.b = newValue;
    e.x = slack;
    e.setName(knob);
    trace->emit(e);
}

void
NodeController::setCoreFrequency(QosFramework &fw, CoreId core,
                                 std::uint32_t step, JobId job,
                                 Cycle now, TraceRecorder *trace)
{
    InOrderCore &cpu = fw.system().core(core);
    const std::uint32_t old = cpu.frequencyStep();
    if (old == step)
        return;
    cpu.setFrequencyStep(step);
    if (trace != nullptr && trace->active()) {
        TraceEvent e =
            traceEvent(TraceEventType::FrequencyChanged, now, job);
        e.a = static_cast<std::uint64_t>(core);
        e.b = step;
        e.x = static_cast<double>(old);
        trace->emit(e);
    }
}

bool
NodeController::wayHeadroom(const QosFramework &fw) const
{
    const PartitionedCache &l2 = fw.system().l2();
    const unsigned assoc = l2.config().assoc;
    unsigned reserved = 0;
    for (int c = 0; c < fw.system().numCores(); ++c)
        if (l2.coreClass(c) == CoreClass::Reserved)
            reserved += l2.targetWays(c);
    return reserved + 1 <= assoc;
}

double
NodeController::measureSlack(Job *job, QosFramework &fw, Cycle now,
                             JobWindow &w)
{
    const JobExecution *exec = job->exec();
    const InstCount instr = exec->executed() - w.lastExecuted;
    const double cycles = exec->cyclesRun - w.lastCycles;
    w.lastExecuted = exec->executed();
    w.lastCycles = exec->cyclesRun;

    constexpr double inf = std::numeric_limits<double>::infinity();
    if (instr < config_.minWindowInstructions || cycles <= 0.0)
        return inf; // window too small to trust: hold
    const double measured = cycles / static_cast<double>(instr);

    double slack = inf;
    const InstCount remaining = exec->remaining();
    if (job->target().hasTimeslot && remaining > 0 &&
        job->deadline != maxCycle) {
        if (job->deadline <= now) {
            slack = -1.0; // already late: boost as hard as possible
        } else {
            const double budget =
                static_cast<double>(job->deadline - now) /
                static_cast<double>(remaining);
            slack = budget / measured - 1.0;
        }
    }
    if (config_.dynamicSlo) {
        const double solo = QosFramework::soloCpi(
            job->benchmark(), job->target().cacheWays,
            fw.config().cmp);
        if (solo > 0.0) {
            const double setpoint =
                solo * (1.0 + config_.sloSlowdown);
            slack = std::min(slack, setpoint / measured - 1.0);
        }
    }
    return slack;
}

void
NodeController::revertWays(Job *job, QosFramework &fw, Cycle now,
                           JobWindow &w, TraceRecorder *trace)
{
    if (w.grantedWays == 0)
        return;
    PartitionedCache &l2 = fw.system().l2();
    const CoreId core = job->assignedCore;
    const unsigned cur = l2.targetWays(core);
    const unsigned floor = job->target().cacheWays;
    // Grants only ever raised the target above the admitted floor,
    // so reverting can never undercut it (or a stealing adjustment).
    const unsigned next =
        cur > w.grantedWays ? std::max(floor, cur - w.grantedWays)
                            : floor;
    l2.setTargetWays(core, next);
    tallies_.wayReturns += w.grantedWays;
    emitRetune(trace, now, job->id(), "ways-revert", cur, next, 0.0);
    w.grantedWays = 0;
}

void
NodeController::boost(Job *job, QosFramework &fw, Cycle now,
                      JobWindow &w, double slack, bool waitingReserved,
                      TraceRecorder *trace)
{
    const CoreId core = job->assignedCore;
    InOrderCore &cpu = fw.system().core(core);

    // 1. Restore frequency toward nominal: free performance.
    if (cpu.frequencyStep() > 0) {
        const std::uint32_t old = cpu.frequencyStep();
        setCoreFrequency(fw, core, old - 1, job->id(), now, trace);
        ++tallies_.freqBoosts;
        emitRetune(trace, now, job->id(), "freq+", old, old - 1,
                   slack);
        return;
    }

    // 2. Grant a cache way above the floor — only for Strict jobs
    // (the stealing engine owns Elastic budgets), only with global
    // reserved headroom, and never while an admitted job waits to
    // start (its start check must not see inflated targets).
    if (job->mode().mode == ExecutionMode::Strict && !waitingReserved &&
        wayHeadroom(fw)) {
        PartitionedCache &l2 = fw.system().l2();
        const unsigned cur = l2.targetWays(core);
        if (cur < l2.config().assoc) {
            l2.setTargetWays(core, cur + 1);
            ++w.grantedWays;
            ++tallies_.wayGrants;
            emitRetune(trace, now, job->id(), "ways+", cur, cur + 1,
                       slack);
            return;
        }
    }

    // 3. Grant a bandwidth-share step.
    BandwidthRegulator *bw = fw.system().bandwidth();
    if (fw.config().cmp.bandwidthPartitioning && bw != nullptr &&
        job->target().bandwidthPercent > 0 &&
        config_.bandwidthStep > 0 &&
        bw->reservedPercent() + config_.bandwidthStep <= 100) {
        const unsigned cur = bw->share(core);
        bw->setShare(core, cur + config_.bandwidthStep);
        w.grantedBw += config_.bandwidthStep;
        ++tallies_.bwGrants;
        emitRetune(trace, now, job->id(), "bw+", cur,
                   cur + config_.bandwidthStep, slack);
    }
}

void
NodeController::economize(Job *job, QosFramework &fw, Cycle now,
                          JobWindow &w, double slack,
                          TraceRecorder *trace)
{
    const CoreId core = job->assignedCore;

    // 1. Return granted bandwidth toward the admitted floor.
    BandwidthRegulator *bw = fw.system().bandwidth();
    if (w.grantedBw > 0 && bw != nullptr) {
        const unsigned cur = bw->share(core);
        const unsigned floor = job->target().bandwidthPercent;
        if (cur > floor) {
            const unsigned dec = std::min(
                {w.grantedBw, std::max(1u, config_.bandwidthStep),
                 cur - floor});
            bw->setShare(core, cur - dec);
            w.grantedBw -= dec;
            ++tallies_.bwReturns;
            emitRetune(trace, now, job->id(), "bw-", cur, cur - dec,
                       slack);
            return;
        }
        w.grantedBw = 0; // share already rescaled to its floor
    }

    // 2. Return a granted way toward the admitted floor.
    if (w.grantedWays > 0) {
        PartitionedCache &l2 = fw.system().l2();
        const unsigned cur = l2.targetWays(core);
        const unsigned floor = job->target().cacheWays;
        if (cur > floor) {
            l2.setTargetWays(core, cur - 1);
            --w.grantedWays;
            ++tallies_.wayReturns;
            emitRetune(trace, now, job->id(), "ways-", cur, cur - 1,
                       slack);
            return;
        }
        w.grantedWays = 0; // target already at floor (job rescaled)
    }

    // 3. Down-clock: slack is converted into dynamic-energy savings.
    InOrderCore &cpu = fw.system().core(core);
    if (cpu.frequencyStep() + 1 < numDvfsSteps) {
        const std::uint32_t old = cpu.frequencyStep();
        setCoreFrequency(fw, core, old + 1, job->id(), now, trace);
        ++tallies_.freqDrops;
        emitRetune(trace, now, job->id(), "freq-", old, old + 1,
                   slack);
    }
}

void
NodeController::step(QosFramework &fw, Cycle now, TraceRecorder *trace)
{
    if (!config_.enabled)
        return;
    CmpSystem &sys = fw.system();

    // Gather running reserved jobs in submission (= job id) order —
    // a deterministic pass over deterministic state.
    std::vector<Job *> active;
    bool waitingReserved = false;
    for (const auto &owned : fw.jobs()) {
        Job *job = owned.get();
        if (job->state() == JobState::Waiting && job->runsReservedNow())
            waitingReserved = true;
        if (job->state() == JobState::Running &&
            job->runsReservedNow() &&
            job->assignedCore != invalidCore)
            active.push_back(job);
    }

    // Drop windows of jobs that left the system.
    for (auto it = windows_.begin(); it != windows_.end();) {
        const JobId id = it->first;
        const bool live =
            std::any_of(active.begin(), active.end(),
                        [id](const Job *j) { return j->id() == id; });
        it = live ? std::next(it) : windows_.erase(it);
    }

    // Reserved-start protection: the scheduler's way-headroom check
    // must never defer an admitted job because of controller grants,
    // so all grants revert the moment anything waits to start.
    if (waitingReserved)
        for (Job *job : active)
            revertWays(job, fw, now, windows_[job->id()], trace);

    // A core whose reserved job left keeps no controller residue:
    // restore nominal frequency before anything else lands on it.
    for (int c = 0; c < sys.numCores(); ++c) {
        const bool reserved =
            std::any_of(active.begin(), active.end(),
                        [c](const Job *j) {
                            return j->assignedCore == c;
                        });
        if (!reserved && sys.core(c).frequencyStep() != 0)
            setCoreFrequency(fw, c, 0, invalidJob, now, trace);
    }

    // Measure, then actuate one knob per job inside the hysteresis
    // band.
    std::vector<Measured> measured;
    measured.reserve(active.size());
    for (Job *job : active) {
        JobWindow &w = windows_[job->id()];
        const double slack = measureSlack(job, fw, now, w);
        Measured m;
        m.job = job;
        m.slack = slack;
        m.valid = slack != std::numeric_limits<double>::infinity();
        measured.push_back(m);
        if (!m.valid)
            continue;
        if (slack < config_.slackLow)
            boost(job, fw, now, w, slack, waitingReserved, trace);
        else if (slack > config_.slackHigh)
            economize(job, fw, now, w, slack, trace);
    }

    // Power cap: if this quantum's average modelled power blew the
    // budget, down-clock the job that can best afford it.
    double dyn_work = 0.0;
    for (int c = 0; c < sys.numCores(); ++c)
        dyn_work += sys.core(c).ledger().dynWork;
    const double energy = modelledEnergy(
        config_, static_cast<double>(now), sys.numCores(), dyn_work);
    if (config_.powerCap > 0.0 && now > lastNow_) {
        const double power = (energy - lastEnergy_) /
                             static_cast<double>(now - lastNow_);
        if (power > config_.powerCap) {
            Measured *pick = nullptr;
            for (Measured &m : measured)
                if (m.valid && (pick == nullptr ||
                                m.slack > pick->slack))
                    pick = &m; // ties keep the lowest job id
            if (pick != nullptr) {
                InOrderCore &cpu =
                    sys.core(pick->job->assignedCore);
                if (cpu.frequencyStep() + 1 < numDvfsSteps) {
                    const std::uint32_t old = cpu.frequencyStep();
                    setCoreFrequency(fw, pick->job->assignedCore,
                                     old + 1, pick->job->id(), now,
                                     trace);
                    ++tallies_.freqDrops;
                    emitRetune(trace, now, pick->job->id(),
                               "freq-cap", old, old + 1,
                               pick->slack);
                }
            }
        }
    }
    lastNow_ = now;
    lastEnergy_ = energy;
}

} // namespace cmpqos
