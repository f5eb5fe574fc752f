#include "node_worker.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace cmpqos
{

NodeWorker::NodeWorker(NodeId id, const FrameworkConfig &config,
                       std::uint64_t seed)
    : id_(id), config_(config), seed_(seed)
{
    FrameworkConfig node_config = config;
    node_config.seed = seed;
    framework_ = std::make_unique<QosFramework>(node_config);
}

void
NodeWorker::setTrace(TraceRecorder *trace)
{
    owner_.grant();
    trace_ = trace;
    framework_->setTrace(trace);
}

void
NodeWorker::enableController(const ControllerConfig &config)
{
    owner_.grant();
    controllerConfig_ = config;
    controller_ = config.enabled
                      ? std::make_unique<NodeController>(config)
                      : nullptr;
}

void
NodeWorker::controllerStep()
{
    owner_.grant();
    if (!alive_ || controller_ == nullptr)
        return;
    controller_->step(*framework_, framework_->simulation().now(),
                      trace_);
}

ControlTallies
NodeWorker::controlTallies() const
{
    owner_.grant();
    ControlTallies t = carried_.control;
    if (controller_ != nullptr)
        t.accumulate(controller_->tallies());
    return t;
}

void
NodeWorker::advanceTo(Cycle t, Cycle stall)
{
    owner_.grant();
    if (!alive_)
        return;
    Simulation &sim = framework_->simulation();
    if (sim.now() >= t)
        return;
    const bool tracing = trace_ != nullptr && trace_->active();
    if (stall > 0) {
        // Slow quantum: the node only reaches t - stall this quantum
        // (virtual latency spike; it catches up next quantum).
        if (tracing) {
            TraceEvent e =
                traceEvent(TraceEventType::QuantumStalled, sim.now());
            e.a = t;
            e.b = stall;
            trace_->emit(e);
        }
        t = t > stall ? t - stall : 0;
        if (sim.now() >= t)
            return;
    }
    if (tracing) {
        TraceEvent e = traceEvent(TraceEventType::QuantumBegin, sim.now());
        e.a = t;
        trace_->emit(e);
    }
    // A no-op event at t pins the clock to the quantum boundary even
    // when the node has nothing to execute, so admission probes in
    // the next quantum see a consistent "now" on every node.
    sim.schedule(t, []() {}, "quantum");
    sim.run(t);
    if (tracing) {
        TraceEvent e = traceEvent(TraceEventType::QuantumEnd, sim.now());
        e.a = t;
        trace_->emit(e);
    }
}

void
NodeWorker::drain()
{
    owner_.grant();
    if (!alive_)
        return;
    framework_->runToCompletion();
}

AdmissionDecision
NodeWorker::probe(const JobRequest &request, InstCount instructions) const
{
    owner_.grant();
    cmpqos_assert(alive_, "probe on dead node %d", id_);
    return framework_->probeJob(request, instructions);
}

Job *
NodeWorker::submit(const JobRequest &request, InstCount instructions)
{
    owner_.grant();
    cmpqos_assert(alive_, "submit on dead node %d", id_);
    Job *job = framework_->submitJob(request, instructions);
    if (job != nullptr) {
        ++placed_;
        pendingRequests_[job->id()] = {request, instructions};
    }
    return job;
}

NodeWorker::CrashReport
NodeWorker::crash()
{
    owner_.grant();
    cmpqos_assert(alive_, "crash on already-dead node %d", id_);
    CrashReport report;
    const QosFramework &fw = *framework_;

    // The dying incarnation's work joins the carried tally (the
    // framework is retired, never read again); its in-flight jobs
    // sort into failed (running) and relocatable (still waiting for
    // their slot).
    carried_.work.add(fw);
    for (const auto &job : fw.jobs()) {
        if (job->state() == JobState::Running) {
            report.failedRunning.push_back(job->id());
        } else if (job->state() == JobState::Waiting) {
            auto it = pendingRequests_.find(job->id());
            cmpqos_assert(it != pendingRequests_.end(),
                          "waiting job %d has no recorded request",
                          job->id());
            report.waiting.push_back({job->id(), it->second.request,
                                      it->second.instructions,
                                      job->mode().mode});
        }
    }
    carried_.virtualTime = fw.simulation().now();
    carried_.failed += report.failedRunning.size();
    if (controller_ != nullptr) {
        carried_.control.accumulate(controller_->tallies());
        controller_.reset();
    }
    alive_ = false;
    return report;
}

void
NodeWorker::restart(Cycle now)
{
    owner_.grant();
    cmpqos_assert(!alive_, "restart on live node %d", id_);
    ++restarts_;
    // Deterministic incarnation seed: node seed split by the restart
    // ordinal, so replays are bit-identical at any thread count.
    Rng derive(seed_ ^ (0x9E3779B97F4A7C15ULL * restarts_));
    FrameworkConfig node_config = config_;
    node_config.seed = derive.next();
    framework_ = std::make_unique<QosFramework>(node_config);
    if (trace_ != nullptr)
        framework_->setTrace(trace_);
    pendingRequests_.clear();
    // Fresh incarnation, fresh measurement windows.
    if (controllerConfig_.enabled)
        controller_ = std::make_unique<NodeController>(controllerConfig_);
    alive_ = true;
    // Align the fresh clock with the cluster barrier.
    advanceTo(now);
}

} // namespace cmpqos
