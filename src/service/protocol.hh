/**
 * @file
 * The qosd wire protocol: message types and the two framings every
 * endpoint (daemon, client library, qosctl) shares.
 *
 * A connection speaks one of two modes, chosen by the first byte the
 * client sends (see detectWireMode):
 *
 *  - Binary: length-prefixed frames. A frame is a 4-byte little-
 *    endian payload length followed by the payload; the payload is a
 *    1-byte message type followed by the type's fields in fixed
 *    order. Integers are little-endian fixed width, doubles are the
 *    IEEE-754 bit pattern of the value as a u64, strings are a u16
 *    byte length followed by that many bytes (no terminator).
 *
 *  - JSONL: one JSON object per newline-terminated line, with an
 *    `"op"` field naming the message type in kebab-case and the
 *    type's fields as flat key/value pairs. Meant for debugging with
 *    nc/socat; the binary mode is the production framing.
 *
 * Both framings carry the same Message variant, and the codec is
 * shared, so a JSONL session exercises exactly the daemon logic a
 * binary session does. decodeFrame never throws and never reads past
 * the supplied buffer: malformed, truncated or oversized input yields
 * a Error status (the full layout is specified in docs/PROTOCOL.md).
 *
 * Versioning: protocolVersion is carried in Hello/HelloAck. The
 * daemon rejects clients whose major version differs; unknown fields
 * in JSONL mode are ignored so minor additions stay compatible.
 */

#ifndef CMPQOS_SERVICE_PROTOCOL_HH
#define CMPQOS_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "cluster/arrival.hh"
#include "common/types.hh"

namespace cmpqos
{

struct WireSchema;

/** Protocol version spoken by this build (single integer; the daemon
 *  requires an exact match in the handshake). Any change to the wire
 *  layout below must bump it; docs/PROTOCOL.md has the procedure. */
constexpr std::uint32_t protocolVersion = 1;

/** Default ceiling on one frame / JSONL line, bytes. Anything larger
 *  is a protocol error: the connection is closed without touching the
 *  journal or the engine. */
constexpr std::size_t defaultMaxFrame = 64 * 1024;

/** Ceiling on the client name in Hello. Keeps the first binary frame
 *  of a session under 0x7b payload bytes, so the first byte on the
 *  wire can never be '{' and mode detection stays unambiguous. */
constexpr std::size_t maxHelloClientName = 100;

/** How a connection frames its messages. */
enum class WireMode : std::uint8_t
{
    Binary,
    Jsonl,
};

/** Admission outcome carried in SubmitReply. */
enum class AdmitOutcome : std::uint8_t
{
    Rejected = 0,
    Accepted = 1,
    /** Accepted after deadline renegotiation. */
    Negotiated = 2,
};

/** Daemon lifecycle state carried in StatusReply. */
enum class DaemonState : std::uint8_t
{
    /** Accepting submissions into the current epoch. */
    Running = 0,
    /** Drain requested: no new submissions, epoch finishing. */
    Draining = 1,
};

/** Error codes carried in ErrorMsg. */
enum class ProtoError : std::uint32_t
{
    None = 0,
    /** Unparseable, truncated or oversized frame; connection drops. */
    Malformed = 1,
    /** Handshake failed (version skew, duplicate hello). */
    BadHandshake = 2,
    /** Submission rejected before admission (unknown benchmark,
     *  bad tier, epoch draining). The journal is untouched. */
    BadSubmit = 3,
    /** Reconfig directive unparseable or out of range. */
    BadReconfig = 4,
};

// --- message structs (field order == binary wire order) -------------

/** Client -> daemon: opens every session. */
struct Hello
{
    std::uint32_t version = protocolVersion;
    /** Free-form client name (shown in logs / status). */
    std::string client;
};

/** Daemon -> client: handshake reply, carries the build identity. */
struct HelloAck
{
    std::uint32_t version = protocolVersion;
    std::uint64_t epoch = 0;
    std::uint32_t nodes = 0;
    std::uint64_t quantum = 0;
    std::uint64_t seed = 0;
    /** buildInfoLine("qosd"): version, git hash, compiler, options. */
    std::string server;
};

/** Client -> daemon: offer one job for admission. */
struct Submit
{
    /** Client-chosen correlation id, echoed in the reply. */
    std::uint32_t ticket = 0;
    /** QosTier as u8 (0 gold / 1 silver / 2 bronze). */
    std::uint8_t tier = 0;
    std::uint64_t instructions = 0;
    /** Requested virtual arrival time; 0 = daemon assigns the next
     *  slot (monotone, previous time + arrival gap). */
    std::uint64_t time = 0;
    std::string benchmark;
};

/** Daemon -> client: admission verdict for one Submit. */
struct SubmitReply
{
    std::uint32_t ticket = 0;
    /** Global submission sequence number (journal line order). */
    std::uint64_t seq = 0;
    std::uint8_t outcome = 0; // AdmitOutcome
    /** Node the job was placed on (-1 when rejected). */
    std::int32_t node = -1;
    /** Virtual arrival time the daemon assigned. */
    std::uint64_t time = 0;
    /** Reserved timeslot start from the accepting LAC's probe. */
    std::uint64_t slotStart = 0;
    /** Deadline factor after negotiation (== requested when not
     *  negotiated). */
    double deadlineFactor = 0.0;
    /** Non-empty when the submission never reached admission
     *  (unknown benchmark, draining epoch, ...). */
    std::string error;
};

/** Client -> daemon: toggle the telemetry/outcome event stream. */
struct Subscribe
{
    std::uint8_t enable = 1;
};

/** Daemon -> client. */
struct SubscribeAck
{
    std::uint8_t enabled = 0;
};

/** Client -> daemon: request a StatusReply. */
struct Status
{
};

/** Daemon -> client: live counters (host-side view; the canonical
 *  simulation-side truth is the epoch fingerprint at drain). */
struct StatusReply
{
    std::uint64_t epoch = 0;
    std::uint8_t state = 0; // DaemonState
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t negotiated = 0;
    std::uint64_t completed = 0;
    /** Cluster virtual time at the last quantum barrier. */
    std::uint64_t virtualTime = 0;
    std::uint32_t sessions = 0;
};

/** Client -> daemon: gracefully finish the current epoch. */
struct Drain
{
    /** 1 = shut the daemon down after the drain completes. */
    std::uint8_t shutdown = 0;
};

/** Daemon -> client: epoch finished draining; the fingerprint is the
 *  canonical digest a journal replay must reproduce. */
struct DrainDone
{
    std::uint64_t epoch = 0;
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::string fingerprint;
};

/** Client -> daemon: live reconfiguration. Directives are
 *  space-separated key=value pairs (quantum, nodes, seed, elastic-x,
 *  arrival-gap); the daemon drains the current epoch and opens the
 *  next one under the new configuration with a fresh journal. */
struct Reconfig
{
    std::string directives;
};

/** Daemon -> client: reconfig accepted (error empty) and @p epoch is
 *  the epoch the new configuration opens, or rejected (error named,
 *  configuration unchanged). */
struct ReconfigAck
{
    std::uint64_t epoch = 0;
    std::string error;
};

/** Daemon -> subscribed client: one telemetry/outcome event, rendered
 *  as the self-describing JSONL line telemetry_dump consumes. */
struct EventMsg
{
    std::uint64_t epoch = 0;
    std::string line;
};

/** Daemon -> client: protocol-level failure. */
struct ErrorMsg
{
    std::uint32_t code = 0; // ProtoError
    std::string message;
};

using Message =
    std::variant<Hello, HelloAck, Submit, SubmitReply, Subscribe,
                 SubscribeAck, Status, StatusReply, Drain, DrainDone,
                 Reconfig, ReconfigAck, EventMsg, ErrorMsg>;

/** The binary layout of every Message alternative, recorded by
 *  running the codec (the `service` section of docs/SCHEMA.lock). */
WireSchema serviceWireSchema();

/** Kebab-case op name of a message ("submit-reply", ...). */
const char *messageOpName(const Message &m);

/**
 * Encode @p m as one wire frame: length-prefixed binary, or a
 * newline-terminated JSON line.
 */
std::string encodeMessage(const Message &m, WireMode mode);

/** Outcome of one decodeFrame call. */
struct DecodeResult
{
    enum class Status
    {
        /** One message decoded; `consumed` bytes were used. */
        Ok,
        /** The buffer holds no complete frame yet; read more. */
        NeedMore,
        /** Malformed / truncated / oversized frame; `error` says
         *  why. The connection should be dropped. */
        Error,
    };

    Status status = Status::NeedMore;
    Message message;
    std::size_t consumed = 0;
    std::string error;
};

/**
 * Decode the first complete frame of @p buffer. Never throws, never
 * reads out of bounds; a frame longer than @p max_frame (or a JSONL
 * line with no newline within it) is an Error, not a wait.
 */
DecodeResult decodeFrame(std::string_view buffer, WireMode mode,
                         std::size_t max_frame = defaultMaxFrame);

/**
 * Wire mode implied by the first byte a client sends: '{' means
 * JSONL (a JSONL line must start with its opening brace — no leading
 * whitespace); anything else is a binary length prefix.
 */
WireMode detectWireMode(char first_byte);

} // namespace cmpqos

#endif // CMPQOS_SERVICE_PROTOCOL_HH
