/**
 * @file
 * One workload instance per process:
 *
 *   perfbench --workload <batch_long|fed_storm|qosd_epochs> --seed <n>
 *             [--trace 0|1] [--replay] [--spans <file>] [--scratch <dir>]
 *   perfbench --host
 *   perfbench --workload <name> --seed <n> --arrivals <file>
 *
 * Prints one JSON line: the checks' verdict, attempted / failed
 * counts, fingerprint digests and every metric the instance measured.
 * --trace 1 also records spans and the run-derived per-layer metrics;
 * --replay runs the layer replay instead of the workload. --host
 * prints the build and host context. --arrivals writes the workload's
 * arrival stream as a trace file that `cluster_driver --trace` replays
 * (the engine fingerprints must then match). perfbench/run.py starts
 * these processes and aggregates them.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/build_info.hh"
#include "host.hh"
#include "spans.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <batch_long|fed_storm|"
                 "qosd_epochs> --seed <n> [--trace 0|1] [--replay]\n"
                 "                 [--spans <file>] [--scratch <dir>]\n"
                 "       perfbench --workload <name> --seed <n> "
                 "--arrivals <file>\n"
                 "       perfbench --host\n",
                 why);
    return 2;
}

/** Write @p w's arrivals in TraceArrivalProcess format. */
int
writeArrivals(Workload w, std::uint64_t seed, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(out, "# %s seed %llu\n", workloadName(w),
                 static_cast<unsigned long long>(seed));
    for (const cmpqos::ClusterArrival &a : workloadArrivals(w, seed))
        std::fprintf(out, "%llu %s %s %llu\n",
                     static_cast<unsigned long long>(a.time),
                     a.request.benchmark.c_str(),
                     cmpqos::qosTierName(a.tier),
                     static_cast<unsigned long long>(a.instructions));
    return std::fclose(out) == 0 ? 0 : 1;
}

int
printHost()
{
    const cmpqos::BuildInfo &b = cmpqos::buildInfo();
    std::string why;
    const bool ok = benchmarkableBuild(why);
    JsonLine line;
    line.count("nproc", std::thread::hardware_concurrency())
        .str("build_type", b.buildType)
        .str("build_line", cmpqos::buildInfoLine("perfbench"))
        .str("compiler", b.compiler)
        .str("git", b.gitHash)
        .str("flags", buildFlags())
        .flag("benchmarkable", ok)
        .str("why", why);
    std::printf("%s\n", line.render().c_str());
    return ok ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    const double process_start = hostSeconds();
    std::string workload;
    std::string seed_text;
    std::string spans_path;
    std::string arrivals_path;
    std::string scratch = ".";
    bool traced = false;
    bool replay = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--host")
            return printHost();
        if (arg == "--replay") {
            replay = true;
        } else if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed_text = argv[++i];
        } else if (arg == "--trace" && has_value) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            traced = v == "1";
        } else if (arg == "--spans" && has_value) {
            spans_path = argv[++i];
        } else if (arg == "--scratch" && has_value) {
            scratch = argv[++i];
        } else if (arg == "--arrivals" && has_value) {
            arrivals_path = argv[++i];
        } else {
            return usage(("unknown or incomplete argument '" + arg + "'")
                             .c_str());
        }
    }
    Workload w;
    if (!parseWorkload(workload, w))
        return usage("--workload names no workload");
    char *end = nullptr;
    const unsigned long long seed =
        std::strtoull(seed_text.c_str(), &end, 10);
    if (seed_text.empty() || *end != '\0')
        return usage("--seed takes a non-negative integer");
    if (!arrivals_path.empty())
        return writeArrivals(w, seed, arrivals_path);

    std::string why;
    if (!benchmarkableBuild(why)) {
        std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                     why.c_str());
        return 3;
    }

    SpanLog spans;
    RunReport report =
        replay ? runReplay(w, seed, spans, scratch)
               : runWorkload(w, seed, process_start,
                             traced ? &spans : nullptr, scratch);
    if (!spans_path.empty() && !spans.spans().empty() &&
        !spans.writeChromeTrace(spans_path,
                                std::string(workloadName(w)) +
                                    (replay ? " replay" : " run")))
        report.check(false, "cannot write " + spans_path);

    std::string digests;
    for (const std::string &fp : report.fingerprints)
        digests += (digests.empty() ? "" : ",") + fnv1a64Hex(fp);
    JsonLine head;
    head.str("workload", workloadName(w))
        .count("seed", seed)
        .str("mode", replay ? "replay" : traced ? "traced" : "run")
        .flag("correct", report.correct)
        .str("error", report.error)
        .count("attempted", report.tally.attempted)
        .count("failed", report.tally.failed)
        .num("failed_frac", report.tally.fraction())
        .str("fingerprints", digests);
    std::string line = head.render();
    const std::string metrics = report.metrics.render();
    if (metrics.size() > 2) {
        line.pop_back();
        line += "," + metrics.substr(1);
    }
    std::printf("%s\n", line.c_str());
    return 0;
}
