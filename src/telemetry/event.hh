/**
 * @file
 * Typed trace events for the telemetry subsystem.
 *
 * Every QoS mechanism in the framework is an *event in time* —
 * admission decisions, mode downgrades, per-interval way stealing and
 * cancellation, repartitioning — and this header gives each one a
 * fixed-size POD record so the hot path can capture it with a plain
 * struct copy into a lock-free ring (no allocation, no locking).
 *
 * Payload fields `a`, `b` (integers) and `x` (double) carry
 * type-specific values; payloadKeys() names them for the exporters
 * and the trace-inspection CLI so JSONL output stays self-describing.
 */

#ifndef CMPQOS_TELEMETRY_EVENT_HH
#define CMPQOS_TELEMETRY_EVENT_HH

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/types.hh"

namespace cmpqos
{

/** The event taxonomy (see DESIGN.md "Telemetry"). */
enum class TraceEventType : std::uint16_t
{
    /** A job/arrival was offered for admission. */
    JobSubmitted,
    /** A node's LAC accepted the job (payload: reserved slot). */
    JobAdmitted,
    /** Admission rejected the job (name: reason). */
    JobRejected,
    /** Accepted only after deadline renegotiation (x: factor). */
    JobNegotiated,
    /** Global admission placed an arrival on a node. */
    ArrivalPlaced,
    /** Job execution began on a core. */
    JobStarted,
    /** Mode downgrade, automatic or manual (name: cause). */
    ModeDowngrade,
    /** Auto-downgraded job switched back to Strict at its slot. */
    ModePromoted,
    /** Stealing engine took one way (x: miss increase so far). */
    WayStolen,
    /** Stolen ways returned to the victim (b: count). */
    WayReturned,
    /** Stealing cancelled: X% bound tripped (x: overshoot value). */
    StealCancelled,
    /** L2 per-core way target changed (b: new, x: old). */
    Repartition,
    /** Job completed by its deadline. */
    DeadlineHit,
    /** Job completed after its deadline. */
    DeadlineMiss,
    /** Job killed before completion (name: cause). */
    JobTerminated,
    /** Node quantum barrier: advance toward `a` begins. */
    QuantumBegin,
    /** Node quantum barrier: advance finished. */
    QuantumEnd,
    /** Fault injection: node `a` died at quantum barrier `b`. */
    NodeCrashed,
    /** Fault recovery: node `a` rejoined with a fresh framework. */
    NodeRestarted,
    /** Admission probe to node `a` silently lost (no reply). */
    ProbeDropped,
    /** Probe to node `a` timed out `b` times (name: outcome). */
    ProbeTimeout,
    /** Duplicated negotiation reply from node `a` was deduplicated. */
    DuplicateReplyDropped,
    /** Slow quantum: node fell `b` cycles short of target `a`. */
    QuantumStalled,
    /** In-flight job lost (name: cause — "node-crash" or
     *  "relocation-failed"); never silently dropped. */
    JobFailed,
    /** Crash reconciliation moved a job from node `a` to node `b`
     *  (name: "re-admitted", "negotiated" or "downgraded"). */
    JobRelocated,
    /** Feedback controller retuned one knob for a job (name: knob
     *  with direction — "freq+", "ways-", ...; a: old value, b: new
     *  value, x: measured slack that drove the decision). */
    ControllerRetune,
    /** A core's DVFS step changed (a: core, b: new step, x: old). */
    FrequencyChanged,
};

constexpr std::size_t numTraceEventTypes = 27;

/** Kebab-case wire name of an event type ("way-stolen", ...). */
const char *traceEventName(TraceEventType t);

/** Parse a wire name back to a type; false if unknown. */
bool traceEventFromName(std::string_view name, TraceEventType &out);

/** JSON keys of one event type's payload fields. */
struct TracePayloadKeys
{
    /** Key for `a`, or nullptr when the field is unused. */
    const char *a = nullptr;
    /** Key for `b`, or nullptr when the field is unused. */
    const char *b = nullptr;
    /** Key for `x`, or nullptr when the field is unused. */
    const char *x = nullptr;
    /** Key for `name`, or nullptr when the field is unused. */
    const char *name = nullptr;
};

const TracePayloadKeys &payloadKeys(TraceEventType t);

/**
 * One captured event. Fixed-size POD: pushing one onto a ring is a
 * struct copy, and a full ring drops the event rather than blocking.
 */
struct TraceEvent
{
    TraceEventType type = TraceEventType::JobSubmitted;
    /** Emitting node (stamped by the recorder; -1 = driver/GAC). */
    std::int16_t node = -1;
    /** Job id (node-local) or driver-side arrival sequence number. */
    std::int32_t job = -1;
    /** Virtual time of the event, cycles. */
    Cycle time = 0;
    /** Integer payloads; meaning per type (see payloadKeys()). */
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    /** Floating payload; meaning per type. */
    double x = 0.0;
    /** Short label (benchmark / reason / cause), NUL-terminated and
     *  truncated to fit — events never allocate. */
    char name[48] = {};

    void
    setName(std::string_view s)
    {
        const std::size_t n = s.size() < sizeof(name) - 1
                                  ? s.size()
                                  : sizeof(name) - 1;
        std::memcpy(name, s.data(), n);
        name[n] = '\0';
    }

    /** Field-wise equality. `name` compares all 48 bytes, which is
     *  exact for events whose name was set at most once. */
    bool operator==(const TraceEvent &) const = default;
};

// The SPSC ring assumes events are raw-copyable PODs: tryPush is a
// struct copy with no construction or ownership semantics, and the
// exporters read fields straight off the drained copy. Pin the whole
// contract here so a future member (a std::string, a virtual, a
// surprise padding change) fails at compile time, not in a ring.
static_assert(sizeof(TraceEvent) == 88, "keep TraceEvent compact");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay memcpy-safe for the SPSC ring");
static_assert(std::is_standard_layout_v<TraceEvent>,
              "TraceEvent must stay standard-layout (stable field "
              "offsets for exporters)");
static_assert(std::is_trivially_destructible_v<TraceEvent>,
              "ring slots are overwritten, never destroyed");

/** Convenience constructor for the common (type, time, job) triple. */
inline TraceEvent
traceEvent(TraceEventType type, Cycle time, JobId job = invalidJob)
{
    TraceEvent e;
    e.type = type;
    e.time = time;
    e.job = job;
    return e;
}

} // namespace cmpqos

#endif // CMPQOS_TELEMETRY_EVENT_HH
