/**
 * @file
 * The benchmark's own statistics: percentiles under the
 * ten-samples-beyond rule, failure accounting, the in-quantum /
 * barrier classification of qosd submits, and fingerprint digests.
 * Everything here is pure and covered by tests/selftest.cc.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** A timing reduced to its median and its tail. */
struct Summary
{
    /** Samples the summary was taken over. */
    std::size_t n = 0;
    double p50 = 0.0;
    /**
     * Highest percentile (as a fraction) that leaves at least
     * kTailBeyond samples strictly above it: 1 - kTailBeyond / n.
     * With n <= kTailBeyond no percentile qualifies and the tail is
     * the largest sample (level 1).
     */
    double tailLevel = 0.0;
    double tail = 0.0;
};

/** Samples a reported tail percentile must leave beyond it. */
constexpr std::size_t kTailBeyond = 10;

/**
 * Nearest-rank percentile of @p values at fraction @p q in (0, 1]:
 * the smallest sample with at least q * n samples at or below it.
 * @p values need not be sorted. Empty input yields 0.
 */
double percentile(std::vector<double> values, double q);

/**
 * The highest percentile fraction that leaves at least @p beyond of
 * @p n samples above it (nearest rank), or 0 if n <= beyond. With
 * n = 1000 and beyond = 10 this is exactly p99.
 */
double tailLevel(std::size_t n, std::size_t beyond = kTailBeyond);

/** Median plus the tailLevel(n) percentile of @p values (or their
 *  maximum when there are too few samples for one). */
Summary summarize(const std::vector<double> &values);

/**
 * Attempted / failed operation counts. A failure is an operation that
 * did not produce its result (a submit without a verdict, a job that
 * failed or missed an accepted deadline); a rejection is a result.
 */
struct FailureTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void attempt(std::uint64_t n = 1) { attempted += n; }
    void fail(std::uint64_t n = 1) { failed += n; }
    /** failed / attempted; 0 when nothing was attempted. */
    double fraction() const;
};

/**
 * Whether a qosd submit assigned virtual time @p time had to wait
 * for a quantum barrier: the engine places arrivals of the current
 * quantum immediately and advances every node to the next boundary
 * before placing one that lies past it. @p prev_time is the previous
 * submit's time in the same epoch (0 for the epoch's first submit,
 * when the engine clock is at 0).
 */
bool crossesQuantum(std::uint64_t prev_time, std::uint64_t time,
                    std::uint64_t quantum);

/** 64-bit FNV-1a digest, as 16 lowercase hex digits. */
std::string fnv1a64Hex(const std::string &text);

/**
 * Per-mode completion and deadline-hit counts parsed from a
 * ClusterMetrics fingerprint ("strict=C:H elastic=C:H ..."), plus the
 * oracle's violation count when the fingerprint carries one.
 */
struct FingerprintTallies
{
    bool ok = false;
    std::uint64_t strictCompleted = 0;
    std::uint64_t strictHits = 0;
    std::uint64_t elasticCompleted = 0;
    std::uint64_t elasticHits = 0;
    std::uint64_t completed = 0;
    std::uint64_t instructions = 0;
    std::uint64_t violations = 0;

    /** Accepted Strict and Elastic jobs that missed their deadline. */
    std::uint64_t
    deadlineMisses() const
    {
        return (strictCompleted - strictHits) +
               (elasticCompleted - elasticHits);
    }
};

FingerprintTallies parseFingerprint(const std::string &fingerprint);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
