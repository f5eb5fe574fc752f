/**
 * @file
 * Fundamental scalar types and identifiers used across the cmpqos
 * simulator and QoS framework.
 *
 * Conventions follow the paper's machine model (Section 6): a 4-core
 * CMP clocked at 2GHz, cycle-granularity timing, and jobs identified
 * by small dense integers assigned at submission time.
 */

#ifndef CMPQOS_COMMON_TYPES_HH
#define CMPQOS_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace cmpqos
{

/** Simulated time expressed in core clock cycles. */
using Cycle = std::uint64_t;

/** A count of retired instructions. */
using InstCount = std::uint64_t;

/** A physical byte address in the simulated machine. */
using Addr = std::uint64_t;

/** Identifier of a processor core within one CMP node. */
using CoreId = int;

/** Identifier of a job submitted to the admission controller. */
using JobId = int;

/** Identifier of a CMP node within a server (used by the GAC). */
using NodeId = int;

/** Sentinel meaning "no core" / "not pinned". */
constexpr CoreId invalidCore = -1;

/** Sentinel meaning "no job" / "unowned cache block". */
constexpr JobId invalidJob = -1;

/** Largest representable cycle count; used as "never" for deadlines. */
constexpr Cycle maxCycle = std::numeric_limits<Cycle>::max();

/** Core clock frequency of the simulated CMP (Section 6: 2GHz). */
constexpr std::uint64_t coreClockHz = 2'000'000'000ULL;

/** Convert a cycle count to seconds at the core clock. */
constexpr double
cyclesToSeconds(Cycle c)
{
    return static_cast<double>(c) / static_cast<double>(coreClockHz);
}

/** Convert seconds to core clock cycles (rounds down). */
constexpr Cycle
secondsToCycles(double s)
{
    return static_cast<Cycle>(s * static_cast<double>(coreClockHz));
}

/** One counter of a tally struct: its name (export key and wire
 *  field) and its member. A tally lists its counters once, in a
 *  table of these, and every reader and writer walks that table. */
template <typename T>
struct TallyField
{
    const char *name;
    std::uint64_t T::*member;
};

} // namespace cmpqos

#endif // CMPQOS_COMMON_TYPES_HH
