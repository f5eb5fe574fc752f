/**
 * @file
 * Shared helpers for the per-figure/per-table benchmark harnesses.
 *
 * Each bench binary reproduces one table or figure from the paper:
 * it runs the relevant workloads and prints the same rows/series the
 * paper reports (plus the paper's reference values where they are
 * stated). Scale knobs come from the environment:
 *
 *   CMPQOS_JOB_INSTR  instructions per job   (default 30,000,000;
 *                     at most what every benchmark's job runs inside
 *                     its address window, about 4.5e9)
 *   CMPQOS_JOBS       accepted jobs/workload (default 10, as in the
 *                     paper; at least 1)
 *   CMPQOS_SEED       workload seed          (default 1)
 *
 * Each is one whole base-10 word read by readValue, like every flag;
 * a bad value exits 2 naming the variable before anything runs.
 *
 * The paper simulates 200M-instruction jobs on Simics; the scaled
 * default keeps every bench in the seconds range while preserving the
 * shapes (see DESIGN.md).
 */

#ifndef CMPQOS_BENCH_HARNESS_HH
#define CMPQOS_BENCH_HARNESS_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "common/json.hh"
#include "qos/framework.hh"
#include "qos/workload_spec.hh"
#include "stats/table.hh"
#include "workload/generator.hh"

namespace cmpqos::bench
{

/** @p name's value in [@p lo, @p hi], or @p fallback when unset;
 *  exits 2 on a value readValue refuses. */
inline std::uint64_t
envOr(const char *name, std::uint64_t fallback, std::uint64_t lo,
      std::uint64_t hi)
{
    const char *v = std::getenv(name);
    std::uint64_t out = fallback;
    if (v != nullptr && !readValue(v, out, static_cast<double>(lo),
                                   static_cast<double>(hi))) {
        std::cerr << name << "='" << v << "': want an integer in [" << lo
                  << ", " << hi << "]\n";
        std::exit(2);
    }
    return out;
}

constexpr std::uint64_t anyCount =
    std::numeric_limits<std::uint64_t>::max();

/** The longest job each registry benchmark runs inside its address
 *  window (maxJobInstructions). */
inline InstCount
longestJobOfEveryBenchmark()
{
    InstCount most = anyCount;
    for (const BenchmarkProfile &b : BenchmarkRegistry::all())
        most = std::min(most, maxJobInstructions(b));
    return most;
}

/** The three scale knobs, read once: a bad one stops the bench at
 *  its first use of any, before a run. */
struct Scale
{
    InstCount jobInstructions =
        envOr("CMPQOS_JOB_INSTR", 30'000'000, 1, longestJobOfEveryBenchmark());
    std::uint64_t jobs = envOr("CMPQOS_JOBS", 10, 1, anyCount);
    std::uint64_t seed = envOr("CMPQOS_SEED", 1, 0, anyCount);
};

inline const Scale &
scale()
{
    static const Scale s;
    return s;
}

inline InstCount
jobInstructions()
{
    return scale().jobInstructions;
}

inline std::size_t
jobsPerWorkload()
{
    return static_cast<std::size_t>(scale().jobs);
}

inline std::uint64_t
workloadSeed()
{
    return scale().seed;
}

/** Framework config tuned for bench runs (paper parameters). */
inline FrameworkConfig
benchFrameworkConfig(ModeConfig config)
{
    FrameworkConfig fc = FrameworkConfig::forModeConfig(config);
    // Paper: repartitioning every 2M Elastic-job instructions; scale
    // with job length so short runs still repartition ~15 times.
    const InstCount instr = jobInstructions();
    fc.stealing.intervalInstructions =
        std::max<InstCount>(instr / 100, 100'000);
    return fc;
}

/** Run one Table 2 configuration on a single-benchmark workload. */
inline WorkloadResult
runSingle(ModeConfig config, const std::string &benchmark)
{
    QosFramework fw(benchFrameworkConfig(config));
    return fw.runWorkload(makeSingleBenchmarkWorkload(
        config, benchmark, jobsPerWorkload(), jobInstructions(),
        workloadSeed()));
}

/** Run one Table 2 configuration on a Table 3 mixed workload. */
inline WorkloadResult
runMixed(ModeConfig config, MixType mix)
{
    QosFramework fw(benchFrameworkConfig(config));
    return fw.runWorkload(makeMixedWorkload(config, mix,
                                            jobsPerWorkload(),
                                            jobInstructions(),
                                            workloadSeed()));
}

inline void
printHeader(const std::string &title, const std::string &paper_ref)
{
    (void)scale(); // refuse a bad knob before printing anything
    std::cout << "\n################################################\n"
              << "# " << title << "\n"
              << "# Paper reference: " << paper_ref << "\n"
              << "# job_instr=" << jobInstructions()
              << " jobs=" << jobsPerWorkload()
              << " seed=" << workloadSeed() << "\n"
              << "################################################\n";
}

} // namespace cmpqos::bench

#endif // CMPQOS_BENCH_HARNESS_HH
