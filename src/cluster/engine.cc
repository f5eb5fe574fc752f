#include "engine.hh"

#include <chrono>
#include <cmath>

#include "common/logging.hh"

namespace cmpqos
{

ClusterEngine::ClusterEngine(const ClusterConfig &config)
    : ClusterEngine(config,
                    std::make_unique<LocalBackend>(
                        0, nodeSeeds(config.seed, config.nodes),
                        config.node,
                        config.threads == 0
                            ? ThreadPool::hardwareConcurrency()
                            : config.threads,
                        config.telemetry, config.checkInvariants,
                        config.control),
                    0)
{
    local_ = static_cast<LocalBackend *>(backend_.get());
}

ClusterEngine::ClusterEngine(const ClusterConfig &config,
                             std::unique_ptr<NodeBackend> backend,
                             int shard_links)
    : config_(config), backend_(std::move(backend))
{
    cmpqos_assert(config_.quantum > 0, "placement quantum must be > 0");
    if (config_.telemetry != nullptr) {
        cmpqos_assert(config_.telemetry->producers() >= config_.nodes + 1,
                      "telemetry collector has %d producers, cluster "
                      "needs %d (nodes + driver)",
                      config_.telemetry->producers(), config_.nodes + 1);
        driverTrace_ = config_.telemetry->driverRecorder();
    }

    alive_.assign(static_cast<std::size_t>(config_.nodes), 1);
    probeSkip_.assign(static_cast<std::size_t>(config_.nodes), 0);
    if (config_.faultPlan != nullptr && !config_.faultPlan->empty()) {
        config_.faultPlan->validate(config_.nodes, shard_links);
        injector_ = std::make_unique<FaultInjector>(*config_.faultPlan,
                                                    config_.quantum);
    }
}

NodeWorker &
ClusterEngine::node(NodeId n)
{
    cmpqos_assert(local_ != nullptr, "node %d is not in this process", n);
    return local_->node(n);
}

NodeId
ClusterEngine::choose(const JobRequest &request, InstCount instructions,
                      Cycle t, bool probe_faults)
{
    probes_ = backend_->probe(request, instructions, t);
    NodeId best = -1;
    Cycle best_slot = maxCycle;
    std::uint64_t best_load = 0;
    unsigned best_ways = 0;
    for (const NodeProbe &p : probes_) {
        if (!p.alive || !p.accepted)
            continue;
        if (probe_faults &&
            probeSkip_[static_cast<std::size_t>(p.node)])
            continue;
        switch (config_.policy) {
          case GacPolicy::FirstFit:
            return p.node;
          case GacPolicy::EarliestSlot:
            if (best < 0 || p.slotStart < best_slot) {
                best = p.node;
                best_slot = p.slotStart;
            }
            break;
          case GacPolicy::LeastLoaded:
            if (best < 0 || p.load < best_load ||
                (p.load == best_load && p.ways < best_ways)) {
                best = p.node;
                best_load = p.load;
                best_ways = p.ways;
            }
            break;
        }
    }
    return best;
}

NodeId
ClusterEngine::negotiate(JobRequest &request, InstCount instructions,
                         Cycle t, bool probe_faults)
{
    // Global negotiation (Section 3.1): offer the smallest relaxed
    // deadline some node would accept.
    const double base = request.deadlineFactor;
    for (double f = 1.0 + config_.negotiateStep;
         f <= config_.negotiateMaxFactor + 1e-9;
         f += config_.negotiateStep) {
        request.deadlineFactor = base * f;
        const NodeId target =
            choose(request, instructions, t, probe_faults);
        if (target >= 0)
            return target;
    }
    return -1;
}

void
ClusterEngine::refreshProbeFaults(Cycle t)
{
    if (injector_ == nullptr || !injector_->anyWindows())
        return;
    const bool tracing =
        driverTrace_ != nullptr && driverTrace_->active();
    for (NodeId n = 0; n < config_.nodes; ++n) {
        const auto i = static_cast<std::size_t>(n);
        probeSkip_[i] = 0;
        if (!alive_[i])
            continue;
        if (injector_->probeDropped(n, t)) {
            probeSkip_[i] = 1;
            ++faults_.probesDropped;
            if (tracing) {
                TraceEvent e =
                    traceEvent(TraceEventType::ProbeDropped, t);
                e.a = static_cast<std::uint64_t>(n);
                driverTrace_->emit(e);
            }
            continue;
        }
        const unsigned failures = injector_->probeTimeoutFailures(n, t);
        if (failures == 0)
            continue;
        const bool abandoned = failures > config_.probeRetry.maxRetries;
        if (abandoned) {
            // Retry budget exhausted: the node counts as unreachable
            // for this placement.
            probeSkip_[i] = 1;
            ++faults_.probeTimeouts;
        } else {
            faults_.probeRetries += failures;
            faults_.backoffCycles +=
                config_.probeRetry.totalBackoff(failures);
        }
        if (tracing) {
            TraceEvent e = traceEvent(TraceEventType::ProbeTimeout, t);
            e.a = static_cast<std::uint64_t>(n);
            e.b = failures;
            e.setName(abandoned ? "abandoned" : "recovered");
            driverTrace_->emit(e);
        }
    }
}

void
ClusterEngine::place(const ClusterArrival &arrival)
{
    // Driver-side events carry the global arrival sequence number as
    // their job id (node-local JobIds collide across nodes); the
    // ArrivalPlaced event records the node-local id for correlation.
    const auto seq = static_cast<JobId>(submitted_);
    ++submitted_;
    const bool tracing = driverTrace_ != nullptr && driverTrace_->active();
    if (tracing) {
        TraceEvent e = traceEvent(TraceEventType::JobSubmitted,
                                  arrival.time, seq);
        e.a = static_cast<std::uint64_t>(arrival.tier);
        e.b = arrival.instructions;
        e.x = arrival.request.deadlineFactor;
        e.setName(arrival.request.benchmark);
        driverTrace_->emit(e);
    }
    refreshProbeFaults(arrival.time);
    JobRequest request = arrival.request;
    NodeId target = choose(request, arrival.instructions, arrival.time);
    bool negotiated = false;
    if (target < 0 && config_.negotiate) {
        target = negotiate(request, arrival.instructions, arrival.time);
        negotiated = target >= 0;
    }

    if (target < 0) {
        ++rejected_;
        if (tracing) {
            TraceEvent e = traceEvent(TraceEventType::JobRejected,
                                      arrival.time, seq);
            e.setName("no node accepted");
            driverTrace_->emit(e);
        }
        if (config_.observer != nullptr) {
            PlacementOutcome o;
            o.seq = static_cast<std::uint64_t>(seq);
            o.deadlineFactor = arrival.request.deadlineFactor;
            config_.observer->onPlacement(arrival, o);
        }
        return;
    }

    const JobId job = backend_->submit(target, request,
                                       arrival.instructions, arrival.time);
    if (job == invalidJob) {
        // Probe and submit run back-to-back at the same node time, so
        // they must agree.
        cmpqos_panic("probe/submit disagreement on node %d", target);
    }
    ++accepted_;
    if (negotiated)
        ++negotiated_;
    ++acceptedByTier_[static_cast<std::size_t>(arrival.tier)];
    if (injector_ != nullptr) {
        // Idempotent commit: acceptance replies are keyed by arrival
        // sequence, so a duplicated reply from the node is detected
        // and dropped instead of double-placing the job.
        const bool fresh =
            committedSeqs_.insert(static_cast<std::uint64_t>(seq))
                .second;
        cmpqos_assert(fresh, "arrival %d committed twice", seq);
        if (injector_->duplicateReply(target, arrival.time)) {
            const bool dup =
                committedSeqs_.insert(static_cast<std::uint64_t>(seq))
                    .second;
            cmpqos_assert(!dup,
                          "duplicate reply slipped past the dedup");
            ++faults_.duplicateReplies;
            if (tracing) {
                TraceEvent e = traceEvent(
                    TraceEventType::DuplicateReplyDropped,
                    arrival.time, seq);
                e.a = static_cast<std::uint64_t>(target);
                driverTrace_->emit(e);
            }
        }
    }
    if (tracing) {
        if (negotiated) {
            TraceEvent n = traceEvent(TraceEventType::JobNegotiated,
                                      arrival.time, seq);
            n.a = static_cast<std::uint64_t>(target);
            n.x = request.deadlineFactor /
                  arrival.request.deadlineFactor;
            n.setName(arrival.request.benchmark);
            driverTrace_->emit(n);
        }
        TraceEvent e = traceEvent(TraceEventType::ArrivalPlaced,
                                  arrival.time, seq);
        e.a = static_cast<std::uint64_t>(target);
        e.b = static_cast<std::uint64_t>(job);
        driverTrace_->emit(e);
    }
    if (config_.observer != nullptr) {
        PlacementOutcome o;
        o.seq = static_cast<std::uint64_t>(seq);
        o.accepted = true;
        o.negotiated = negotiated;
        o.node = target;
        for (const NodeProbe &probe : probes_)
            if (probe.node == target)
                o.slotStart = probe.slotStart;
        o.deadlineFactor = request.deadlineFactor;
        config_.observer->onPlacement(arrival, o);
    }
}

void
ClusterEngine::relocate(NodeId origin, const NodeWorker::LostJob &lost,
                        Cycle t)
{
    const bool tracing =
        driverTrace_ != nullptr && driverTrace_->active();
    // Relocation probes bypass probe-fault windows: the GAC is
    // re-placing from its own records, not racing a lossy probe.
    JobRequest request = lost.request;
    NodeId target = choose(request, lost.instructions, t, false);
    bool negotiated = false;
    bool downgraded = false;
    if (target < 0 && config_.negotiate &&
        lost.mode != ExecutionMode::Opportunistic) {
        target = negotiate(request, lost.instructions, t, false);
        negotiated = target >= 0;
    }
    if (target < 0 && lost.mode == ExecutionMode::Elastic) {
        // Elastic fallback: rather than lose the job, re-admit it
        // best-effort (a QoS downgrade the tallies make visible).
        JobRequest fallback = lost.request;
        fallback.mode = ModeSpec::opportunistic();
        target = choose(fallback, lost.instructions, t, false);
        if (target >= 0) {
            request = fallback;
            downgraded = true;
        }
    }
    if (target < 0) {
        // No alive node can take the job: a distinct failure outcome,
        // never a silent drop.
        ++faults_.relocationRejected;
        backend_->recordRelocationFailure(origin, t);
        if (tracing) {
            TraceEvent e = traceEvent(TraceEventType::JobFailed, t,
                                      lost.localJob);
            e.a = static_cast<std::uint64_t>(origin);
            e.b = static_cast<std::uint64_t>(lost.localJob);
            e.setName("relocation-failed");
            driverTrace_->emit(e);
        }
        return;
    }
    if (backend_->submit(target, request, lost.instructions, t) ==
        invalidJob)
        cmpqos_panic("relocation probe/submit disagreement on node %d",
                     target);
    if (downgraded)
        ++faults_.relocationDowngraded;
    else
        ++faults_.relocated;
    if (tracing) {
        TraceEvent e =
            traceEvent(TraceEventType::JobRelocated, t, lost.localJob);
        e.a = static_cast<std::uint64_t>(origin);
        e.b = static_cast<std::uint64_t>(target);
        e.setName(downgraded    ? "downgraded"
                  : negotiated ? "renegotiated"
                               : "readmitted");
        driverTrace_->emit(e);
    }
}

void
ClusterEngine::applyFaultActions(Cycle t)
{
    if (injector_ == nullptr)
        return;
    const bool tracing =
        driverTrace_ != nullptr && driverTrace_->active();
    for (const FaultAction &action : injector_->actionsDue(t)) {
        const auto i = static_cast<std::size_t>(action.node);
        if (action.type == FaultType::NodeCrash) {
            if (!alive_[i])
                continue; // already down: tolerated plan sloppiness
            ++faults_.crashes;
            alive_[i] = 0;
            const NodeWorker::CrashReport report =
                backend_->crash(action.node, t);
            if (tracing) {
                TraceEvent e =
                    traceEvent(TraceEventType::NodeCrashed, t);
                e.a = static_cast<std::uint64_t>(action.node);
                e.b = action.quantum;
                driverTrace_->emit(e);
                for (JobId j : report.failedRunning) {
                    TraceEvent f =
                        traceEvent(TraceEventType::JobFailed, t, j);
                    f.a = static_cast<std::uint64_t>(action.node);
                    f.b = static_cast<std::uint64_t>(j);
                    f.setName("node-crash");
                    driverTrace_->emit(f);
                }
            }
            for (const NodeWorker::LostJob &lost : report.waiting)
                relocate(action.node, lost, t);
        } else {
            if (alive_[i])
                continue; // restart without a crash: no-op
            ++faults_.restarts;
            alive_[i] = 1;
            backend_->restart(action.node, t);
            if (tracing) {
                TraceEvent e =
                    traceEvent(TraceEventType::NodeRestarted, t);
                e.a = static_cast<std::uint64_t>(action.node);
                e.b = action.quantum;
                driverTrace_->emit(e);
            }
        }
    }
}

void
ClusterEngine::advance(Cycle from, Cycle to)
{
    // The controller-step rule lives here and only here: every node's
    // controller steps once at the start of every advance the driver
    // issues — after that barrier's placements, before the nodes move
    // — and the driver never issues an empty advance. Both backends
    // step inside advance() and nowhere else, so a run steps the same
    // controllers the same number of times on either backend.
    cmpqos_assert(to > from, "empty advance %llu -> %llu",
                  static_cast<unsigned long long>(from),
                  static_cast<unsigned long long>(to));
    std::vector<Cycle> stalls;
    if (injector_ != nullptr && injector_->anyWindows()) {
        // Slow-quantum stalls are computed on the driver thread so
        // the parallel advance stays deterministic.
        stalls.assign(static_cast<std::size_t>(config_.nodes), 0);
        for (NodeId n = 0; n < config_.nodes; ++n) {
            const auto i = static_cast<std::size_t>(n);
            if (!alive_[i])
                continue;
            stalls[i] = injector_->stallCycles(n, from);
            if (stalls[i] > 0)
                ++faults_.stalledQuanta;
        }
    }
    backend_->advance(from, to, stalls);
}

ClusterMetrics
ClusterEngine::run(ArrivalProcess &arrivals, Cycle horizon, bool drain)
{
    // detlint:allow(wall-clock): measurement-only host wall time for
    // the metrics snapshot; never feeds virtual time or placement.
    const auto wall_start = std::chrono::steady_clock::now();

    std::optional<ClusterArrival> pending = arrivals.next();
    Cycle t = 0;
    while (t < horizon) {
        applyFaultActions(t);

        Cycle next_q = t + config_.quantum;
        if (pending && pending->time >= next_q) {
            // Nothing to place for a while: jump to the quantum
            // boundary at or before the next arrival (driver-side
            // shortcut, identical at every thread count).
            const Cycle boundary =
                pending->time - (pending->time % config_.quantum);
            next_q = std::max(next_q, boundary);
        }
        if (injector_ != nullptr) {
            const Cycle ev = injector_->nextEventTime(t);
            if (ev < next_q) {
                // Never jump past a barrier with scheduled fault
                // activity; inside a window, step one quantum at a
                // time so per-quantum faults land on every quantum.
                next_q = t + config_.quantum;
            } else if (!pending && injector_->actionsPending() &&
                       ev != maxCycle && ev > next_q) {
                // Stream is dry but crash/restart work remains:
                // jump straight to the next fault barrier.
                next_q = ev;
            }
        }
        if (next_q > horizon)
            next_q = horizon;

        while (pending && pending->time < next_q) {
            if (pending->time >= horizon)
                break;
            place(*pending);
            pending = arrivals.next();
        }

        if (!pending && !drain)
            break;
        if (!pending && drain &&
            !(injector_ != nullptr && injector_->actionsPending())) {
            // Stream exhausted: no more placements can happen, so
            // the remaining work has no quantum constraint.
            break;
        }
        advance(t, next_q);
        t = next_q;
        if (config_.observer != nullptr)
            config_.observer->onQuantum(t);
    }

    if (drain) {
        backend_->drain();
    } else {
        if (t < horizon)
            advance(t, horizon);
        // Open-loop truncation: the arrival already pulled past the
        // horizon was never offered for admission.
        if (pending)
            ++truncated_;
    }
    if (config_.observer != nullptr)
        config_.observer->onQuantum(drain ? t : horizon);

    // detlint:allow(wall-clock): measurement-only host wall time for
    // the metrics snapshot; never feeds virtual time or placement.
    const auto wall_end = std::chrono::steady_clock::now();
    wallSeconds_ +=
        std::chrono::duration<double>(wall_end - wall_start).count();
    return snapshot();
}

ClusterMetrics
ClusterEngine::runToCompletion(ArrivalProcess &arrivals)
{
    // The calling thread is the driver for the whole run: the barrier
    // protocol gives it exclusive use of the placement machinery.
    driver_.grant();
    return run(arrivals, maxCycle, true);
}

ClusterMetrics
ClusterEngine::runForDuration(ArrivalProcess &arrivals, Cycle duration)
{
    cmpqos_assert(duration > 0, "duration must be > 0");
    driver_.grant();
    return run(arrivals, duration, false);
}

ClusterMetrics
ClusterEngine::snapshot()
{
    ClusterMetrics m;
    m.seed = config_.seed;
    m.threads = backend_->threads();
    m.shards = backend_->shards();
    m.quantum = config_.quantum;
    m.submitted = submitted_;
    m.accepted = accepted_;
    m.rejected = rejected_;
    m.negotiated = negotiated_;
    m.truncated = truncated_;
    m.acceptedByTier = acceptedByTier_;
    m.wallSeconds = wallSeconds_;
    m.faults = faults_;
    m.controllerOn = config_.control.enabled;
    const std::vector<NodeMetrics> per_node = backend_->collect(m.faults);
    m.invariantViolations = backend_->invariantViolations();
    MetricsExporter::aggregate(m, per_node);
    return m;
}

} // namespace cmpqos
