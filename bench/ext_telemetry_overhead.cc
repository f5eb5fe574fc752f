/**
 * @file
 * Extension bench: what event tracing costs the cluster engine.
 *
 * Runs the same 8-node open-loop workload four ways — no collector
 * attached (baseline), collector attached but runtime-disabled,
 * enabled with default-size rings, and enabled with deliberately
 * saturated (tiny) rings — reporting wall-clock, throughput delta vs
 * baseline, and the capture's delivered/dropped event counts. The
 * PR's acceptance bar: the disabled path stays within ~2% of
 * baseline, and a saturated ring sheds events instead of blocking a
 * worker (the fingerprint must match the baseline in every regime).
 * Results are recorded in EXPERIMENTS.md; a machine-readable
 * BENCH_telemetry_overhead.json (argv[1] overrides the path) rides
 * along for CI archiving.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_json.hh"
#include "cluster/engine.hh"
#include "telemetry/collector.hh"

using namespace cmpqos;

namespace
{

/** Discards events: measures capture cost without export I/O. */
struct NullSink : public TraceSink
{
    void consume(const TraceEvent &) override {}
    void close(const TraceMeta &) override {}
};

enum class Regime
{
    NoCollector,
    Disabled,
    Enabled,
    Saturated,
};

struct Result
{
    double wall = 0.0;
    double jobsPerSec = 0.0;
    std::uint64_t events = 0;
    std::uint64_t drops = 0;
    std::string fingerprint;
};

Result
runOnce(Regime regime)
{
    ClusterConfig config;
    config.nodes = 8;
    config.threads = 4;
    config.seed = 42;
    config.quantum = 2'000'000;

    TelemetryConfig tc;
    tc.enabled = regime != Regime::Disabled;
    if (regime == Regime::Saturated)
        tc.ringCapacity = 16;
    TraceCollector collector(config.nodes + 1, tc);
    NullSink sink;
    collector.addSink(&sink);
    if (regime != Regime::NoCollector)
        config.telemetry = &collector;

    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 2'000'000;
    PoissonArrivalProcess arrivals(250'000.0, mix,
                                   config.seed ^ 0xa11a1ULL, 96);
    ClusterEngine engine(config);
    const ClusterMetrics m = engine.runToCompletion(arrivals);

    Result r;
    r.wall = m.wallSeconds;
    r.jobsPerSec = m.jobsPerWallSecond();
    r.events = collector.eventsDelivered();
    r.drops = collector.totalDrops();
    r.fingerprint = m.fingerprint();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        bench::benchJsonPath(argc, argv, "telemetry_overhead");
    constexpr int kReps = 5;
    std::printf("# ext_telemetry_overhead: 8 nodes, 4 threads, 96 "
                "Poisson jobs, seed 42, best of %d interleaved\n\n",
                kReps);

    // Warm the solo-CPI calibration memo first.
    (void)runOnce(Regime::NoCollector);

    struct Row
    {
        const char *name;
        Regime regime;
        Result best;
    };
    Row regimes[] = {
        {"no-collector", Regime::NoCollector, {}},
        {"disabled", Regime::Disabled, {}},
        {"enabled", Regime::Enabled, {}},
        {"saturated-16", Regime::Saturated, {}},
    };

    // Interleave the regimes so host-load drift hits all of them
    // equally instead of biasing whichever ran first.
    for (int rep = 0; rep < kReps; ++rep) {
        for (Row &row : regimes) {
            const Result r = runOnce(row.regime);
            if (rep == 0 || r.wall < row.best.wall)
                row.best = r;
        }
    }

    std::printf("%-14s %-10s %-10s %-9s %-9s %-8s %s\n", "regime",
                "wall_s", "jobs/s", "delta", "events", "drops",
                "deterministic");
    const double base_wall = regimes[0].best.wall;
    const std::string base_fp = regimes[0].best.fingerprint;
    bench::BenchJson json("ext_telemetry_overhead");
    json.meta("nodes", 8).meta("jobs", 96).meta("seed", 42).meta(
        "reps", kReps);
    bool ok = true;
    for (const Row &row : regimes) {
        const Result &r = row.best;
        const bool same = r.fingerprint == base_fp;
        ok = ok && same;
        char delta[16];
        std::snprintf(delta, sizeof(delta), "%+.1f%%",
                      base_wall > 0.0
                          ? 100.0 * (r.wall - base_wall) / base_wall
                          : 0.0);
        std::printf("%-14s %-10.3f %-10.1f %-9s %-9llu %-8llu %s\n",
                    row.name, r.wall, r.jobsPerSec, delta,
                    static_cast<unsigned long long>(r.events),
                    static_cast<unsigned long long>(r.drops),
                    same ? "yes" : "NO");
        json.addRow()
            .str("regime", row.name)
            .f64("wall_seconds", r.wall, 6)
            .f64("jobs_per_second", r.jobsPerSec, 1)
            .f64("delta_percent",
                 base_wall > 0.0
                     ? 100.0 * (r.wall - base_wall) / base_wall
                     : 0.0,
                 1)
            .u64("events", r.events)
            .u64("drops", r.drops)
            .boolean("deterministic", same);
    }
    if (!json.write(json_path))
        return 1;
    if (!ok) {
        std::printf("\ntracing perturbed the simulation!\n");
        return 1;
    }
    return 0;
}
