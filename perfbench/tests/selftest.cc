/**
 * @file
 * Self-tests for the benchmark's own statistics: the percentile rule,
 * failure accounting, the in-quantum / barrier classification of qosd
 * submits, span self time and the fingerprint helpers. Plain asserts
 * that survive NDEBUG; exits non-zero if any check failed.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_selftest
 *   ctest --test-dir .bench_build/perfbench
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "host.hh"
#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

std::vector<double>
range(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

std::size_t
beyond(const std::vector<double> &v, double x)
{
    std::size_t n = 0;
    for (double y : v)
        n += y > x ? 1 : 0;
    return n;
}

void
percentileRule()
{
    // Nearest rank: the smallest sample with q * n at or below it.
    EXPECT(percentile({}, 0.5) == 0.0);
    EXPECT(percentile({7.0}, 0.99) == 7.0);
    EXPECT(percentile({3.0, 1.0, 2.0}, 0.5) == 2.0);
    EXPECT(percentile(range(4), 0.5) == 2.0);
    EXPECT(percentile(range(1000), 0.99) == 990.0);
    EXPECT(percentile(range(1000), 1.0) == 1000.0);

    // The tail is the highest percentile with ten samples beyond it.
    EXPECT(near(tailLevel(1000), 0.99));
    EXPECT(near(tailLevel(48), 1.0 - 10.0 / 48.0));
    EXPECT(tailLevel(10) == 0.0);
    EXPECT(tailLevel(0) == 0.0);

    // At 1000 samples the tail is exactly p99 with exactly ten beyond.
    const Summary s = summarize(range(1000));
    EXPECT(s.n == 1000);
    EXPECT(s.p50 == 500.0);
    EXPECT(near(s.tailLevel, 0.99));
    EXPECT(s.tail == 990.0);
    EXPECT(beyond(range(1000), s.tail) == kTailBeyond);

    // Every sample count leaves at least ten beyond the reported tail.
    for (std::size_t n = kTailBeyond + 1; n <= 2500; ++n) {
        const std::vector<double> v = range(n);
        const Summary t = summarize(v);
        if (beyond(v, t.tail) < kTailBeyond || t.n != n) {
            EXPECT(beyond(v, t.tail) >= kTailBeyond);
            break;
        }
    }

    // Too few samples for any tail: the tail is the maximum, level 1.
    const Summary few = summarize({4.0, 9.0, 1.0});
    EXPECT(few.n == 3);
    EXPECT(few.tailLevel == 1.0);
    EXPECT(few.tail == 9.0);
    const Summary none = summarize({});
    EXPECT(none.n == 0 && none.p50 == 0.0 && none.tail == 0.0);
}

void
failureAccounting()
{
    FailureTally t;
    EXPECT(t.fraction() == 0.0);
    t.attempt(1000);
    EXPECT(t.fraction() == 0.0);
    t.fail();
    t.fail(2);
    EXPECT(t.failed == 3);
    EXPECT(near(t.fraction(), 0.003));
}

void
quantumClassification()
{
    constexpr std::uint64_t q = 2'000'000;
    EXPECT(!crossesQuantum(0, 0, q)); // first submit of an epoch
    EXPECT(!crossesQuantum(0, q - 1, q));
    EXPECT(crossesQuantum(q - 1, q, q));
    EXPECT(!crossesQuantum(q, 2 * q - 1, q));
    EXPECT(crossesQuantum(q, 5 * q, q)); // several barriers at once
    EXPECT(!crossesQuantum(5, 9, 0));    // no quantum, no barrier

    // qosd_epochs' shape: one submit per 250k cycles on 2M quanta, so
    // exactly one submit in eight waits for a barrier.
    std::uint64_t prev = 0;
    int barriers = 0;
    for (std::uint64_t i = 0; i < 125; ++i) {
        const std::uint64_t t = i * 250'000;
        barriers += crossesQuantum(prev, t, q) ? 1 : 0;
        prev = t;
    }
    EXPECT(barriers == 15);
}

void
spanSelfTime()
{
    SpanLog log;
    const std::uint32_t root = log.add("run", SpanLog::kRoot, 0, 0.0, 10.0);
    log.add("a", root, 1, 1.0, 3.0);
    const std::uint32_t b = log.add("b", root, 2, 2.0, 5.0); // overlaps a
    log.add("c", root, 3, 7.0, 8.0);
    log.add("d", root, 4, 9.0, 12.0); // clipped to the parent's end
    log.add("b.child", b, 5, 2.5, 4.5);
    const std::uint32_t lone = log.add("lone", SpanLog::kRoot, 6, 20.0, 21.5);

    const std::vector<double> self = log.selfTimes();
    // Children cover [1,5] + [7,8] + [9,10] = 6 of the root's 10.
    EXPECT(near(self[root], 4.0));
    // A grandchild counts against its parent only.
    EXPECT(near(self[b], 1.0));
    EXPECT(near(self[lone], 1.5));
    EXPECT(near(log.selfTotal("b"), 1.0));
    EXPECT(log.durations("a").size() == 1 &&
           near(log.durations("a")[0], 2.0));

    // open/close measure a non-negative interval.
    const std::uint32_t live = log.open("live", SpanLog::kRoot, 7);
    log.close(live);
    EXPECT(log.spans()[live].duration() >= 0.0);
}

void
fingerprints()
{
    EXPECT(fnv1a64Hex("") == "cbf29ce484222325");
    EXPECT(fnv1a64Hex("a") == "af63dc4c8601ec8c");

    const std::string fp =
        "seed=42 submitted=10 accepted=9 rejected=1 negotiated=2 "
        "truncated=0 tiers=5/3/1 vt=4000 instr=1800000 completed=9 "
        "stolen=0 strict=5:4 elastic=3:3 opportunistic=1:0 faults=0:0:0:"
        "0:0:0:0:0:0:0:0:0:0:0:0:0 violations=1 n0=5:5:0:900000:0:4000";
    const FingerprintTallies t = parseFingerprint(fp);
    EXPECT(t.ok);
    EXPECT(t.completed == 9 && t.instructions == 1800000);
    EXPECT(t.strictCompleted == 5 && t.strictHits == 4);
    EXPECT(t.deadlineMisses() == 1);
    EXPECT(t.violations == 1);
    EXPECT(!parseFingerprint("seed=1 completed=3").ok);
}

void
jsonLine()
{
    JsonLine j;
    j.num("x", 1.5).count("n", 7).str("s", "a\"b\\c\n").flag("f", true);
    EXPECT(j.render() ==
           "{\"x\":1.5,\"n\":7,\"s\":\"a\\\"b\\\\c\\u000a\",\"f\":true}");
}

} // namespace

int
main()
{
    percentileRule();
    failureAccounting();
    quantumClassification();
    spanSelfTime();
    fingerprints();
    jsonLine();
    if (failures != 0) {
        std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
