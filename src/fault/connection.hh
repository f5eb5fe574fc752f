/**
 * @file
 * Connection-level fault injection for the qosd wire protocol.
 *
 * Where plan.hh injects faults into the *simulation* (crashes, lost
 * probes), this file injects faults into the *transport*: frames cut
 * short, length prefixes claiming absurd sizes, garbage bytes, and
 * clients that vanish mid-submission. The service tests drive these
 * against a live daemon and assert the containment contract: the
 * connection is dropped cleanly, the journal gains no line, the
 * invariant oracle stays green, and the epoch fingerprint is
 * unchanged by the attack.
 *
 * Faults have the same line-oriented text form as fault plans
 * (`# comments`, one directive per line), read and written from one
 * table in connection.cc:
 *
 *     truncate <keep_bytes>       send only the first N bytes, then
 *                                 disconnect (mid-frame death)
 *     oversize <claimed_len>      binary length prefix claiming N
 *                                 payload bytes (tests the frame
 *                                 ceiling; nothing follows)
 *     garbage <n_bytes> [seed]    N deterministic pseudo-random bytes
 *     corrupt <byte_offset>       flip the low bit at offset N
 *                                 (payload corruption, length intact)
 *
 * corruptFrame() is pure: it maps an honest encoded frame to the
 * byte string the fault would put on the wire, so the tests stay
 * deterministic and need no real packet mangling.
 */

#ifndef CMPQOS_FAULT_CONNECTION_HH
#define CMPQOS_FAULT_CONNECTION_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cmpqos
{

/** The transport-fault taxonomy. */
enum class ConnFaultType
{
    /** Keep the first `param` bytes of the frame, drop the rest. */
    TruncateFrame,
    /** Emit a binary length prefix claiming `param` payload bytes
     *  (and no payload). */
    OversizeFrame,
    /** Replace the frame with `param` seeded pseudo-random bytes. */
    GarbageBytes,
    /** Flip the low bit of the byte at offset `param`. */
    CorruptByte,
};

/** One planned transport fault. */
struct ConnFaultSpec
{
    ConnFaultType type = ConnFaultType::TruncateFrame;
    std::uint64_t param = 0;
    /** GarbageBytes: generator seed (deterministic stream). */
    std::uint64_t seed = 1;

    /** The directive's text form (one plan line). */
    std::string format() const;
};

/** An ordered list of transport faults with the text round-trip. */
struct ConnFaultPlan
{
    std::vector<ConnFaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** Semicolon-joined directives — the one-line reproducer form. */
    std::string summary() const;

    /** One directive per line (re-parseable). */
    void write(std::ostream &os) const;

    /** Parse the text form; false (with @p error filled) on a
     *  malformed directive. */
    static bool tryParse(std::istream &is, ConnFaultPlan &out,
                         std::string &error);
};

/**
 * The bytes @p fault puts on the wire in place of the honestly
 * encoded @p frame. Pure and deterministic. TruncateFrame with
 * param >= frame size and CorruptByte with an out-of-range offset
 * return the frame unchanged (a no-op fault, not an error).
 */
std::string corruptFrame(std::string_view frame,
                         const ConnFaultSpec &fault);

} // namespace cmpqos

#endif // CMPQOS_FAULT_CONNECTION_HH
