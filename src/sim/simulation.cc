#include "simulation.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace cmpqos
{

Simulation::Simulation(CmpSystem &sys)
    : sys_(sys),
      sliceCycles_(static_cast<std::size_t>(sys.numCores()), 0.0)
{
}

void
Simulation::schedule(Cycle when, EventQueue::Callback fn, std::string label)
{
    events_.schedule(when, std::move(fn), std::move(label));
}

void
Simulation::scheduleAfter(Cycle delay, EventQueue::Callback fn,
                          std::string label)
{
    events_.schedule(now_ + delay, std::move(fn), std::move(label));
}

void
Simulation::startJobOn(CoreId core, JobExecution *job)
{
    InOrderCore &cpu = sys_.core(core);
    const double t_now = static_cast<double>(now_);
    if (cpu.localTime() < t_now) {
        cpu.ledger().idleCycles += t_now - cpu.localTime();
        cpu.setTime(t_now);
    }
    sys_.enqueueJob(core, job);
    if (trace_ != nullptr && trace_->active()) {
        TraceEvent e =
            traceEvent(TraceEventType::JobStarted, now_, job->id());
        e.a = static_cast<std::uint64_t>(core);
        trace_->emit(e);
    }
}

CoreId
Simulation::pickLaggard() const
{
    CoreId best = invalidCore;
    double best_t = 0.0;
    for (int c = 0; c < sys_.numCores(); ++c) {
        if (sys_.queueLength(c) == 0)
            continue;
        const double t = sys_.core(c).localTime();
        if (best == invalidCore || t < best_t) {
            best = c;
            best_t = t;
        }
    }
    return best;
}

void
Simulation::run(Cycle until)
{
    stop_ = false;
    while (!stop_ && now_ < until) {
        const Cycle ev_time = events_.nextTime();
        const CoreId core = pickLaggard();

        if (core == invalidCore) {
            // Nothing executing: jump straight to the next event.
            if (ev_time == maxCycle)
                break;
            now_ = std::max(now_, ev_time);
            events_.runNext();
            ++eventsProcessed_;
            continue;
        }

        const double core_t = sys_.core(core).localTime();
        if (ev_time != maxCycle &&
            static_cast<double>(ev_time) <= core_t) {
            now_ = std::max(now_, ev_time);
            events_.runNext();
            ++eventsProcessed_;
            continue;
        }

        JobExecution *job = sys_.runningJob(core);
        AdvanceResult res =
            sys_.advance(core, sys_.config().chunkInstructions);
        ++chunksExecuted_;

        // Global time follows the lagging active core (monotonic).
        const CoreId lag = pickLaggard();
        const double lag_t = lag == invalidCore
                                 ? sys_.core(core).localTime()
                                 : sys_.core(lag).localTime();
        now_ = std::max(now_, static_cast<Cycle>(lag_t));

        // Timeslice accounting for time-shared cores.
        auto &slice = sliceCycles_[static_cast<std::size_t>(core)];
        slice += res.cycles;
        if (slice >= static_cast<double>(sys_.config().timeslice)) {
            slice = 0.0;
            sys_.rotate(core);
        }

        if (res.completed != nullptr && onComplete_)
            onComplete_(res.completed);
        if (quantumHook_)
            quantumHook_(core, job);
    }
}

SoloRun
runSolo(const CmpConfig &cmp, const BenchmarkProfile &profile,
        unsigned ways, InstCount instructions, std::uint64_t seed)
{
    CmpSystem sys(cmp);
    Simulation sim(sys);
    sys.l2().setTargetWays(0, ways);
    sys.l2().setCoreClass(0, CoreClass::Reserved);
    JobExecution job(0, profile, instructions, seed);
    job.generator().forEachStandingBlock(
        [&](Addr a) { sys.l2().access(0, a, false); });
    sim.startJobOn(0, &job);
    sim.run();
    return {job.cpi(), job.missRate(), job.l2Misses, job.executed()};
}

} // namespace cmpqos
