/**
 * @file
 * The co-simulation driver: interleaves per-core job execution in
 * small instruction chunks (so jobs sharing the L2 interleave their
 * access streams realistically) with a discrete-event queue for job
 * arrivals, reservation-slot starts, and mode switches.
 *
 * Scheduling rule: always advance the laggard — the active core with
 * the smallest local time — unless a pending event is due first.
 * Event firing may be late by at most one chunk's worth of cycles
 * (bounded skew); chunks default to 20K instructions, well below any
 * policy-relevant time constant in the paper (the shortest is the 2M
 * instruction repartitioning interval).
 */

#ifndef CMPQOS_SIM_SIMULATION_HH
#define CMPQOS_SIM_SIMULATION_HH

#include <functional>

#include "common/types.hh"
#include "sim/cmp_system.hh"
#include "sim/event_queue.hh"
#include "telemetry/recorder.hh"

namespace cmpqos
{

/**
 * Drives one CmpSystem forward in time.
 */
class Simulation
{
  public:
    using CompletionHandler = std::function<void(JobExecution *)>;
    /** Called after every chunk: (core, job advanced). */
    using QuantumHook = std::function<void(CoreId, JobExecution *)>;

    explicit Simulation(CmpSystem &sys);

    CmpSystem &system() { return sys_; }

    /** Current global simulated time in cycles. */
    Cycle now() const { return now_; }

    /**
     * Stable address of the virtual clock, for clock-less components
     * (partitioned cache, stealing engine) stamping trace events.
     */
    const Cycle *clockPtr() const { return &now_; }

    /** Telemetry: emit JobStarted when an execution lands on a core. */
    void setTrace(TraceRecorder *trace) { trace_ = trace; }

    /** Schedule a callback at absolute cycle @p when. */
    void schedule(Cycle when, EventQueue::Callback fn,
                  std::string label = "");

    /** Schedule a callback @p delay cycles from now. */
    void scheduleAfter(Cycle delay, EventQueue::Callback fn,
                       std::string label = "");

    /** Invoked whenever a job completes (after it is dequeued). */
    void setCompletionHandler(CompletionHandler h)
    {
        onComplete_ = std::move(h);
    }

    /** Invoked after every execution chunk (resource stealing etc.). */
    void setQuantumHook(QuantumHook h) { quantumHook_ = std::move(h); }

    /**
     * Place @p job at the back of @p core's run queue, syncing the
     * core's local clock (and idle accounting) to global time first.
     */
    void startJobOn(CoreId core, JobExecution *job);

    /**
     * Run until the event queue drains and all cores idle, until
     * simulated time passes @p until, or until requestStop().
     */
    void run(Cycle until = maxCycle);

    void requestStop() { stop_ = true; }
    bool stopped() const { return stop_; }

    std::uint64_t eventsProcessed() const { return eventsProcessed_; }
    std::uint64_t chunksExecuted() const { return chunksExecuted_; }

  private:
    /** Active core with the smallest local time; invalidCore if none. */
    CoreId pickLaggard() const;

    CmpSystem &sys_;
    EventQueue events_;
    TraceRecorder *trace_ = nullptr;
    Cycle now_ = 0;
    bool stop_ = false;
    CompletionHandler onComplete_;
    QuantumHook quantumHook_;
    std::vector<double> sliceCycles_;
    std::uint64_t eventsProcessed_ = 0;
    std::uint64_t chunksExecuted_ = 0;
};

/** What one solo steady-state run measured (see runSolo). */
struct SoloRun
{
    double cpi = 0.0;
    double missRate = 0.0;
    std::uint64_t l2Misses = 0;
    InstCount executed = 0;
};

/**
 * Run @p profile alone to completion on core 0 of a fresh CmpSystem
 * built from @p cmp, reserved at @p ways ways, with the job's
 * standing working set pre-filled first (the paper skips init phases
 * and measures post-init windows). The tw calibration and the
 * Table 1 / Figure 4 measurements all go through here; each caller
 * keeps its own chunk size in @p cmp and its own @p seed.
 */
SoloRun runSolo(const CmpConfig &cmp, const BenchmarkProfile &profile,
                unsigned ways, InstCount instructions,
                std::uint64_t seed);

} // namespace cmpqos

#endif // CMPQOS_SIM_SIMULATION_HH
