#include "shard_controller.hh"

#include <cstring>

#include "cluster/arrival.hh"
#include "common/logging.hh"
#include "control/config.hh"

namespace cmpqos
{

void
ShardBufferSink::consume(const TraceEvent &e)
{
    TraceEvent out = e;
    // Shard-local recorders stamp local producer indices; rebase to
    // global node ids before the batch crosses the link. Driver-side
    // events (node < 0) never occur on a shard.
    if (out.node >= 0)
        out.node = static_cast<std::int16_t>(out.node + nodeBegin_);
    buffer_.append(reinterpret_cast<const char *>(&out), sizeof(out));
}

WireJobRequest
toWireRequest(const JobRequest &request, InstCount instructions)
{
    WireJobRequest w;
    w.benchmark = request.benchmark;
    w.mode = static_cast<std::uint8_t>(request.mode.mode);
    w.slack = request.mode.slack;
    w.deadlineFactor = request.deadlineFactor;
    w.cores = request.cores;
    w.ways = request.ways;
    w.bandwidthPercent = request.bandwidthPercent;
    w.instructions = instructions;
    return w;
}

JobRequest
fromWireRequest(const WireJobRequest &w, InstCount &instructions)
{
    JobRequest r;
    r.benchmark = w.benchmark;
    // The decoder bounds field sizes, not semantics: an out-of-range
    // mode byte falls back to Strict instead of invoking UB.
    r.mode.mode = w.mode <= 2 ? static_cast<ExecutionMode>(w.mode)
                              : ExecutionMode::Strict;
    r.mode.slack = w.slack;
    r.deadlineFactor = w.deadlineFactor;
    r.cores = w.cores;
    r.ways = w.ways;
    r.bandwidthPercent = w.bandwidthPercent;
    instructions = w.instructions;
    return r;
}

FedCrashReport
toWireCrash(NodeId node, const NodeWorker::CrashReport &report)
{
    FedCrashReport r;
    r.node = node;
    r.failedRunning.reserve(report.failedRunning.size());
    for (const JobId id : report.failedRunning)
        r.failedRunning.push_back(static_cast<std::uint64_t>(id));
    r.waiting.reserve(report.waiting.size());
    for (const NodeWorker::LostJob &lost : report.waiting) {
        WireLostJob w;
        w.localJob = lost.localJob;
        w.mode = static_cast<std::uint8_t>(lost.mode);
        w.request = toWireRequest(lost.request, lost.instructions);
        r.waiting.push_back(std::move(w));
    }
    return r;
}

NodeWorker::CrashReport
fromWireCrash(const FedCrashReport &w)
{
    NodeWorker::CrashReport report;
    for (const std::uint64_t j : w.failedRunning)
        report.failedRunning.push_back(static_cast<JobId>(j));
    for (const WireLostJob &wire : w.waiting) {
        NodeWorker::LostJob lost;
        lost.localJob = wire.localJob;
        lost.mode = wire.mode <= 2 ? static_cast<ExecutionMode>(wire.mode)
                                   : ExecutionMode::Strict;
        lost.request = fromWireRequest(wire.request, lost.instructions);
        report.waiting.push_back(std::move(lost));
    }
    return report;
}

bool
ShardController::serve(Link &link, std::string &error)
{
    owner_.grant();
    std::string payload;
    for (;;) {
        if (!link.recv(payload)) {
            error = link.error();
            return error.empty(); // clean close vs poisoned stream
        }
        std::uint64_t seq = 0;
        FedMessage msg;
        std::string decode_error;
        if (!decodeFedPayload(payload, seq, msg, decode_error)) {
            // Poisoned stream: report once, then tear the link down —
            // resynchronising a corrupt frame boundary is hopeless.
            link.send(encodeFedPayload(++txSeq_,
                                       FedError{decode_error}));
            error = decode_error;
            return false;
        }
        if (seq <= lastRxSeq_)
            continue; // duplicate delivery (link-dup): absorb silently
        lastRxSeq_ = seq;

        if (std::holds_alternative<FedShutdown>(msg))
            return true;

        const FedMessage reply = handle(msg);
        if (!link.send(encodeFedPayload(++txSeq_, reply))) {
            error = link.error();
            return false;
        }
    }
}

FedMessage
ShardController::handle(const FedMessage &msg)
{
    if (const auto *m = std::get_if<FedInit>(&msg))
        return onInit(*m);
    if (nodes_ == nullptr)
        return FedError{std::string(fedMessageName(msg)) +
                        " before FedInit"};
    if (const auto *m = std::get_if<FedProbe>(&msg)) {
        InstCount instructions = 0;
        const JobRequest request =
            fromWireRequest(m->request, instructions);
        FedProbeReply reply;
        for (const NodeProbe &p : nodes_->probe(request, instructions, 0))
            reply.probes.push_back({.node = p.node,
                                    .alive = p.alive,
                                    .accepted = p.accepted,
                                    .slotStart = p.slotStart,
                                    .load = p.load,
                                    .ways = p.ways});
        return reply;
    }
    if (const auto *m = std::get_if<FedSubmit>(&msg)) {
        if (auto refused = refusal(msg, m->node, true))
            return *refused;
        InstCount instructions = 0;
        const JobRequest request =
            fromWireRequest(m->request, instructions);
        // The coordinator checks its arrivals, but a job no node here
        // could run is refused too, not fatal in its stream.
        const std::string why =
            arrivalBoundsError(0, instructions, request.benchmark);
        if (!why.empty())
            return FedError{std::string(fedMessageName(msg)) + ": " + why};
        const JobId job =
            nodes_->submit(m->node, request, instructions, 0);
        return FedSubmitAck{
            .node = m->node, .jobId = job, .ok = job != invalidJob};
    }
    if (const auto *m = std::get_if<FedCrash>(&msg)) {
        if (auto refused = refusal(msg, m->node, true))
            return *refused;
        return toWireCrash(m->node, nodes_->crash(m->node, 0));
    }
    if (const auto *m = std::get_if<FedRestart>(&msg)) {
        if (auto refused = refusal(msg, m->node, false))
            return *refused;
        nodes_->restart(m->node, m->now);
        return FedRestartAck{m->node};
    }
    if (const auto *m = std::get_if<FedAdvance>(&msg))
        return onAdvance(*m);
    if (const auto *m = std::get_if<FedRelocFail>(&msg)) {
        if (auto refused = refusal(msg, m->node, std::nullopt))
            return *refused;
        nodes_->recordRelocationFailure(m->node, 0);
        return FedRelocFailAck{m->node};
    }
    if (std::holds_alternative<FedDrainReq>(msg)) {
        nodes_->drain();
        return barrierDone<FedDrainDone>();
    }
    if (std::holds_alternative<FedSnapshotReq>(msg)) {
        FaultTallies unused;
        return FedSnapshotReply{nodes_->collect(unused)};
    }
    if (std::holds_alternative<FedInvariantReq>(msg)) {
        FedInvariantReport report;
        report.checksRun = nodes_->invariantChecksRun();
        report.violations = nodes_->invariantViolations();
        report.report = nodes_->invariantReport();
        return report;
    }
    return FedError{std::string("unexpected message: ") +
                    fedMessageName(msg)};
}

std::optional<FedError>
ShardController::refusal(const FedMessage &msg, NodeId node,
                         std::optional<bool> alive)
{
    const std::string what =
        std::string(fedMessageName(msg)) + ": node " + std::to_string(node);
    if (!nodes_->contains(node))
        return FedError{what + " is not in this shard's slice"};
    if (alive && nodes_->node(node).alive() != *alive)
        return FedError{what + (*alive ? " is dead" : " is alive")};
    return std::nullopt;
}

FedMessage
ShardController::onInit(const FedInit &m)
{
    if (m.protocolVersion != fedProtocolVersion)
        return FedError{"protocol version mismatch: coordinator speaks " +
                        std::to_string(m.protocolVersion) +
                        ", shard speaks " +
                        std::to_string(fedProtocolVersion)};
    if (m.nodeCount <= 0 ||
        m.nodeSeeds.size() != static_cast<std::size_t>(m.nodeCount))
        return FedError{"malformed init: node count / seed mismatch"};
    // Both sizes come off the wire: refuse them before any ring or
    // worker thread exists.
    if (m.ringCapacity > maxRingCapacity)
        return FedError{"malformed init: ring_capacity " +
                        std::to_string(m.ringCapacity) + " is above " +
                        std::to_string(maxRingCapacity)};
    if (m.threads > ThreadPool::maxThreads)
        return FedError{"malformed init: threads " +
                        std::to_string(m.threads) + " is above " +
                        std::to_string(ThreadPool::maxThreads)};

    ControllerConfig control;
    if (!m.control.empty()) {
        std::string parse_error;
        if (!parseControllerSpec(m.control, control, parse_error))
            return FedError{"bad controller spec: " + parse_error};
    }

    nodes_.reset();
    buffer_.reset();
    collector_.reset();
    if (m.telemetry != 0) {
        TelemetryConfig tc;
        if (m.ringCapacity > 0)
            tc.ringCapacity = m.ringCapacity;
        collector_ = std::make_unique<TraceCollector>(m.nodeCount + 1,
                                                      tc);
        buffer_ = std::make_unique<ShardBufferSink>(
            static_cast<std::int16_t>(m.nodeBegin));
        collector_->addSink(buffer_.get());
    }
    // Node ids and seeds are global: the coordinator derives every
    // node's seed from the cluster seed and ships this shard's slice,
    // so each node's RNG stream is identical at any shard count.
    nodes_ = std::make_unique<LocalBackend>(
        m.nodeBegin, m.nodeSeeds, FrameworkConfig{},
        m.threads > 0 ? m.threads : 1, collector_.get(),
        m.checkInvariants != 0, control);
    return FedReady{m.shardIndex};
}

FedMessage
ShardController::onAdvance(const FedAdvance &m)
{
    if (!m.stalls.empty() && m.stalls.size() != nodes_->size())
        return FedError{"advance stall vector size mismatch"};
    // Whether the oracle runs was fixed by FedInit's checkInvariants,
    // which the coordinator mirrors into every advance's check flag.
    nodes_->advance(m.from, m.to, m.stalls);
    FedQuantumDone done = barrierDone<FedQuantumDone>();
    done.to = m.to;
    return done;
}

template <typename Done>
Done
ShardController::barrierDone()
{
    Done done;
    done.checksRun = nodes_->invariantChecksRun();
    done.violations = nodes_->invariantViolations();
    if (buffer_ != nullptr)
        done.events = buffer_->take();
    done.drops = collector_ != nullptr ? collector_->totalDrops() : 0;
    return done;
}

} // namespace cmpqos
