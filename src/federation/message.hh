/**
 * @file
 * The shard protocol: typed messages between the federation
 * coordinator (the GAC / driver side) and its shard controllers (each
 * owning a contiguous slice of nodes and running their LACs locally).
 *
 * Same construction as the admission-service protocol: binary frames
 * with a length prefix, every message's fields listed once in a
 * `visitFields` template (see src/common/wire_codec.hh), a
 * never-throwing bounded decoder. On top of that the federation
 * envelope carries a per-direction sequence number so a duplicated
 * delivery (the link-dup fault, or a retransmission after a link
 * drop) is detected and absorbed by the receiver instead of
 * double-executing a command.
 *
 * Frame layout on a stream transport:
 *
 *     [u32 payload_len][payload]
 *     payload = [u64 seq][u8 type][fields...]
 *
 * The in-process transport carries the same encoded payloads through
 * a queue, so both backends exercise one codec and a captured run is
 * transport-independent. docs/FEDERATION.md specifies the message
 * flow; type codes are frozen there.
 */

#ifndef CMPQOS_FEDERATION_MESSAGE_HH
#define CMPQOS_FEDERATION_MESSAGE_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace cmpqos
{

struct WireSchema;

/**
 * Version of the federation wire protocol: the FedMessage alternative
 * order plus every visitFields field sequence below. Any change to
 * that wire reality must bump this constant: docs/SCHEMA.lock is
 * recorded by running the codec (fedWireSchema), and regenerating it
 * is refused until the constant moves (docs/PROTOCOL.md has the
 * procedure). FedInit carries it so a version-skewed shard is
 * rejected at handshake instead of desyncing mid-epoch.
 */
constexpr std::uint32_t fedProtocolVersion = 2;

/** Wire form of a JobRequest plus the job length. */
struct WireJobRequest
{
    std::string benchmark;
    std::uint8_t mode = 0; // ExecutionMode
    double slack = 0.0;
    double deadlineFactor = 2.0;
    std::uint32_t cores = 1;
    std::uint32_t ways = 7;
    std::uint32_t bandwidthPercent = 0;
    std::uint64_t instructions = 0;
};

/** One node's answer inside a probe round. */
struct WireProbe
{
    std::int32_t node = -1;
    std::uint8_t alive = 0;
    std::uint8_t accepted = 0;
    /** Reserved timeslot start the LAC would grant. */
    std::uint64_t slotStart = 0;
    /** LeastLoaded key: jobs in flight. */
    std::uint64_t load = 0;
    /** LeastLoaded tie-break: reserved cache ways at node time. */
    std::uint32_t ways = 0;
};

/** A waiting job lost in a crash, offered back for relocation. */
struct WireLostJob
{
    std::int32_t localJob = -1;
    std::uint8_t mode = 0; // ExecutionMode of the lost job
    WireJobRequest request;
};

/** Serialized NodeMetrics (see cluster/metrics.hh). */
struct WireNodeMetrics
{
    std::int32_t node = -1;
    std::uint64_t virtualTime = 0;
    std::uint64_t placed = 0;
    std::uint64_t completed = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t instructions = 0;
    double utilisation = 0.0;
    std::uint64_t stolenWays = 0;
    std::uint64_t failed = 0;
    std::uint64_t restarts = 0;
    std::uint8_t alive = 1;
    /** completed/deadlineHits per ExecutionMode, flattened. */
    std::vector<std::uint64_t> modeTallies;
    /** Modelled energy (0 unless the feedback controller is on). */
    double energy = 0.0;
    /** ControlTallies flattened via flattenTallies (control layer). */
    std::vector<std::uint64_t> controlTallies;
};

// --- coordinator -> shard ------------------------------------------

/** Bring-up: the shard's node slice and run parameters. */
struct FedInit
{
    /** Sender's fedProtocolVersion; onInit rejects a mismatch. */
    std::uint32_t protocolVersion = fedProtocolVersion;
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    std::int32_t nodeBegin = 0;
    std::int32_t nodeCount = 0;
    std::int32_t totalNodes = 0;
    std::uint64_t quantum = 0;
    std::uint32_t threads = 1;
    std::uint8_t telemetry = 0;
    std::uint64_t ringCapacity = 0;
    std::uint8_t checkInvariants = 0;
    /** Per-local-node RNG seeds, derived by the coordinator from the
     *  cluster seed — the same SplitMix expansion at any shard count,
     *  so node streams are shard-count-invariant. */
    std::vector<std::uint64_t> nodeSeeds;
    /** Canonical feedback-controller spec (formatControllerSpec);
     *  empty = controller disabled. */
    std::string control;
};

/** Probe round: ask every local LAC whether it would accept. */
struct FedProbe
{
    WireJobRequest request;
};

/** Commit: submit the job to one local node (chosen by the GAC). */
struct FedSubmit
{
    std::int32_t node = -1;
    WireJobRequest request;
};

/** Fault action: crash a local node at this barrier. */
struct FedCrash
{
    std::int32_t node = -1;
};

/** Fault recovery: restart a crashed local node at time `now`. */
struct FedRestart
{
    std::int32_t node = -1;
    std::uint64_t now = 0;
};

/** Commit barrier: advance all local nodes from `from` to `to`,
 *  apply per-node stalls, drain telemetry, run the oracle. */
struct FedAdvance
{
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    /** Slow-quantum stalls, one per local node (may be empty). */
    std::vector<std::uint64_t> stalls;
    std::uint8_t check = 0;
};

/** Final drain: run every local node to completion. */
struct FedDrainReq
{
};

/** Collect per-node metrics. */
struct FedSnapshotReq
{
};

/** Collect the invariant oracle's totals and report text. */
struct FedInvariantReq
{
};

/** Tear down the shard (no reply; the serve loop exits). */
struct FedShutdown
{
};

/** A waiting job lost on this node could not be relocated anywhere:
 *  count it failed on the origin (per-node failed tallies feed the
 *  fingerprint, so the bookkeeping must live with the node). */
struct FedRelocFail
{
    std::int32_t node = -1;
};

// --- shard -> coordinator ------------------------------------------

/** Init acknowledged; the shard is serving. */
struct FedReady
{
    std::uint32_t shardIndex = 0;
};

/** Answers for one probe round, local nodes in id order. */
struct FedProbeReply
{
    std::vector<WireProbe> probes;
};

/** Submission outcome. ok=0 means probe/submit disagreement — the
 *  coordinator panics, exactly like the in-process engine. */
struct FedSubmitAck
{
    std::int32_t node = -1;
    std::int32_t jobId = -1;
    std::uint8_t ok = 0;
};

/** What the crash destroyed (see NodeWorker::CrashReport). */
struct FedCrashReport
{
    std::int32_t node = -1;
    /** Local ids of running jobs that failed. */
    std::vector<std::uint64_t> failedRunning;
    /** Waiting jobs offered for relocation. */
    std::vector<WireLostJob> waiting;
};

struct FedRestartAck
{
    std::int32_t node = -1;
};

/** Barrier done: telemetry batch + oracle totals for the quantum. */
struct FedQuantumDone
{
    std::uint64_t to = 0;
    std::uint64_t checksRun = 0;
    std::uint64_t violations = 0;
    /** Drained TraceEvents, raw 88-byte records back to back. */
    std::string events;
    /** Cumulative ring-full drops on this shard. */
    std::uint64_t drops = 0;
};

/** Drain done: final telemetry batch + oracle totals. */
struct FedDrainDone
{
    std::uint64_t checksRun = 0;
    std::uint64_t violations = 0;
    std::string events;
    std::uint64_t drops = 0;
};

struct FedSnapshotReply
{
    std::vector<WireNodeMetrics> nodes;
};

struct FedInvariantReport
{
    std::uint64_t checksRun = 0;
    std::uint64_t violations = 0;
    std::string report;
};

/** Fatal shard-side error (the coordinator aborts the run). */
struct FedError
{
    std::string message;
};

struct FedRelocFailAck
{
    std::int32_t node = -1;
};

using FedMessage =
    std::variant<FedInit, FedProbe, FedSubmit, FedCrash, FedRestart,
                 FedAdvance, FedDrainReq, FedSnapshotReq,
                 FedInvariantReq, FedShutdown, FedReady, FedProbeReply,
                 FedSubmitAck, FedCrashReport, FedRestartAck,
                 FedQuantumDone, FedDrainDone, FedSnapshotReply,
                 FedInvariantReport, FedError, FedRelocFail,
                 FedRelocFailAck>;

/** The binary layout of every FedMessage alternative and the structs
 *  they nest, recorded by running the codec (the `federation`
 *  section of docs/SCHEMA.lock). */
WireSchema fedWireSchema();

/** Human-readable message name (diagnostics). */
const char *fedMessageName(const FedMessage &m);

/** Hard ceiling on one frame. Quantum-barrier telemetry batches
 *  dominate: ring capacity x 88 bytes x nodes per shard. */
constexpr std::size_t fedMaxFrame = 64u << 20;

/** Encode `[u64 seq][u8 type][fields...]` (no length prefix). */
std::string encodeFedPayload(std::uint64_t seq, const FedMessage &m);

/**
 * Decode a payload produced by encodeFedPayload. Never throws;
 * hostile input returns false with @p error set. Trailing bytes
 * after the last field are an error (a frame is exactly one
 * message).
 */
bool decodeFedPayload(std::string_view payload, std::uint64_t &seq,
                      FedMessage &out, std::string &error);

/** Result of extractFedFrame. */
enum class FedFrameStatus
{
    Ok,
    NeedMore,
    Error,
};

/**
 * Pull one length-prefixed frame off the front of @p buffer (a
 * stream-transport receive buffer): `[u32 len][payload]`. On Ok the
 * payload is moved into @p payload and consumed from the buffer.
 * Oversized or undersized lengths are Error — the link is poisoned
 * and must be torn down, mirroring the service codec's contract.
 */
FedFrameStatus extractFedFrame(std::string &buffer, std::string &payload,
                               std::string &error,
                               std::size_t max_frame = fedMaxFrame);

} // namespace cmpqos

#endif // CMPQOS_FEDERATION_MESSAGE_HH
