#include "message.hh"

#include <type_traits>
#include <utility>

#include "common/wire_codec.hh"

namespace cmpqos
{

// Field lists, one per message, in frozen wire order. Nested structs
// go through the same visitor (v.embed in place, v.list as elements),
// so WireJobRequest etc. have one field list each.

template <typename V>
void
visitFields(WireJobRequest &m, V &v)
{
    v.str("benchmark", m.benchmark);
    v.u8("mode", m.mode);
    v.f64("slack", m.slack);
    v.f64("deadline_factor", m.deadlineFactor);
    v.u32("cores", m.cores);
    v.u32("ways", m.ways);
    v.u32("bandwidth_percent", m.bandwidthPercent);
    v.u64("instructions", m.instructions);
}

template <typename V>
void
visitFields(WireProbe &m, V &v)
{
    v.i32("node", m.node);
    v.u8("alive", m.alive);
    v.u8("accepted", m.accepted);
    v.u64("slot_start", m.slotStart);
    v.u64("load", m.load);
    v.u32("ways", m.ways);
}

template <typename V>
void
visitFields(WireLostJob &m, V &v)
{
    v.i32("local_job", m.localJob);
    v.u8("mode", m.mode);
    v.embed("request", m.request);
}

template <typename V>
void
visitFields(WireNodeMetrics &m, V &v)
{
    v.i32("node", m.node);
    v.u64("virtual_time", m.virtualTime);
    v.u64("placed", m.placed);
    v.u64("completed", m.completed);
    v.u64("in_flight", m.inFlight);
    v.u64("instructions", m.instructions);
    v.f64("utilisation", m.utilisation);
    v.u64("stolen_ways", m.stolenWays);
    v.u64("failed", m.failed);
    v.u64("restarts", m.restarts);
    v.u8("alive", m.alive);
    v.u64vec("mode_tallies", m.modeTallies);
    v.f64("energy", m.energy);
    v.u64vec("control_tallies", m.controlTallies);
}

template <typename V>
void
visitFields(FedInit &m, V &v)
{
    v.u32("protocol_version", m.protocolVersion);
    v.u32("shard_index", m.shardIndex);
    v.u32("shard_count", m.shardCount);
    v.i32("node_begin", m.nodeBegin);
    v.i32("node_count", m.nodeCount);
    v.i32("total_nodes", m.totalNodes);
    v.u64("quantum", m.quantum);
    v.u32("threads", m.threads);
    v.u8("telemetry", m.telemetry);
    v.u64("ring_capacity", m.ringCapacity);
    v.u8("check_invariants", m.checkInvariants);
    v.u64vec("node_seeds", m.nodeSeeds);
    v.str("control", m.control);
}

template <typename V>
void
visitFields(FedProbe &m, V &v)
{
    v.embed("request", m.request);
}

template <typename V>
void
visitFields(FedSubmit &m, V &v)
{
    v.i32("node", m.node);
    v.embed("request", m.request);
}

template <typename V>
void
visitFields(FedCrash &m, V &v)
{
    v.i32("node", m.node);
}

template <typename V>
void
visitFields(FedRestart &m, V &v)
{
    v.i32("node", m.node);
    v.u64("now", m.now);
}

template <typename V>
void
visitFields(FedAdvance &m, V &v)
{
    v.u64("from", m.from);
    v.u64("to", m.to);
    v.u64vec("stalls", m.stalls);
    v.u8("check", m.check);
}

template <typename V>
void
visitFields(FedDrainReq &, V &)
{
}

template <typename V>
void
visitFields(FedSnapshotReq &, V &)
{
}

template <typename V>
void
visitFields(FedInvariantReq &, V &)
{
}

template <typename V>
void
visitFields(FedShutdown &, V &)
{
}

template <typename V>
void
visitFields(FedReady &m, V &v)
{
    v.u32("shard_index", m.shardIndex);
}

template <typename V>
void
visitFields(FedProbeReply &m, V &v)
{
    v.list("probes", m.probes);
}

template <typename V>
void
visitFields(FedSubmitAck &m, V &v)
{
    v.i32("node", m.node);
    v.i32("job_id", m.jobId);
    v.u8("ok", m.ok);
}

template <typename V>
void
visitFields(FedCrashReport &m, V &v)
{
    v.i32("node", m.node);
    v.u64vec("failed_running", m.failedRunning);
    v.list("waiting", m.waiting);
}

template <typename V>
void
visitFields(FedRestartAck &m, V &v)
{
    v.i32("node", m.node);
}

template <typename V>
void
visitFields(FedQuantumDone &m, V &v)
{
    v.u64("to", m.to);
    v.u64("checks_run", m.checksRun);
    v.u64("violations", m.violations);
    v.bytes("events", m.events);
    v.u64("drops", m.drops);
}

template <typename V>
void
visitFields(FedDrainDone &m, V &v)
{
    v.u64("checks_run", m.checksRun);
    v.u64("violations", m.violations);
    v.bytes("events", m.events);
    v.u64("drops", m.drops);
}

template <typename V>
void
visitFields(FedSnapshotReply &m, V &v)
{
    v.list("nodes", m.nodes);
}

template <typename V>
void
visitFields(FedInvariantReport &m, V &v)
{
    v.u64("checks_run", m.checksRun);
    v.u64("violations", m.violations);
    v.str("report", m.report);
}

template <typename V>
void
visitFields(FedError &m, V &v)
{
    v.str("message", m.message);
}

template <typename V>
void
visitFields(FedRelocFail &m, V &v)
{
    v.i32("node", m.node);
}

template <typename V>
void
visitFields(FedRelocFailAck &m, V &v)
{
    v.i32("node", m.node);
}

namespace
{

// Wire type codes are the variant alternative indices, frozen in
// docs/FEDERATION.md. Appending new messages keeps old codes stable.

const char *const fedNames[] = {
    "init",          "probe",        "submit",
    "crash",         "restart",      "advance",
    "drain",         "snapshot",     "invariant",
    "shutdown",      "ready",        "probe-reply",
    "submit-ack",    "crash-report", "restart-ack",
    "quantum-done",  "drain-done",   "snapshot-reply",
    "invariant-report", "error",    "reloc-fail",
    "reloc-fail-ack",
};

static_assert(std::variant_size_v<FedMessage> ==
                  sizeof(fedNames) / sizeof(fedNames[0]),
              "fedNames out of sync with FedMessage");

} // namespace

WireSchema
fedWireSchema()
{
    return recordWireSchema<FedMessage>("federation", "FedMessage",
                                        "fedProtocolVersion",
                                        fedProtocolVersion);
}

const char *
fedMessageName(const FedMessage &m)
{
    return fedNames[m.index()];
}

std::string
encodeFedPayload(std::uint64_t seq, const FedMessage &m)
{
    BinWriter w;
    w.push64(seq);
    w.u8("type", static_cast<std::uint8_t>(m.index()));
    std::visit([&w](auto &alt) { visitFields(const_cast<
                   std::remove_cvref_t<decltype(alt)> &>(alt), w); },
               m);
    return std::move(w.out);
}

bool
decodeFedPayload(std::string_view payload, std::uint64_t &seq,
                 FedMessage &out, std::string &error)
{
    BinReader r;
    r.in = payload;
    std::uint8_t type = 0xff;
    r.u64("seq", seq);
    r.u8("type", type);
    if (!r.ok) {
        error = r.err;
        return false;
    }
    // Materialise the alternative selected by the type byte, then let
    // it decode its own fields.
    if (!makeAlternative(type, out)) {
        error = "unknown message type " + std::to_string(type);
        return false;
    }
    std::visit([&r](auto &alt) { visitFields(alt, r); }, out);
    if (!r.ok) {
        error = r.err;
        return false;
    }
    if (r.pos != payload.size()) {
        error = "trailing bytes after " +
                std::string(fedMessageName(out)) + " payload";
        return false;
    }
    return true;
}

FedFrameStatus
extractFedFrame(std::string &buffer, std::string &payload,
                std::string &error, std::size_t max_frame)
{
    std::uint32_t len = 0;
    if (!peekFrameLength(buffer, len))
        return FedFrameStatus::NeedMore;
    // A payload is at least [u64 seq][u8 type].
    if (len < 9) {
        error = "undersized frame (" + std::to_string(len) + " bytes)";
        return FedFrameStatus::Error;
    }
    if (len > max_frame) {
        error = "oversized frame (" + std::to_string(len) + " bytes)";
        return FedFrameStatus::Error;
    }
    if (buffer.size() - 4 < len)
        return FedFrameStatus::NeedMore;
    payload.assign(buffer, 4, len);
    buffer.erase(0, 4 + static_cast<std::size_t>(len));
    return FedFrameStatus::Ok;
}

} // namespace cmpqos
