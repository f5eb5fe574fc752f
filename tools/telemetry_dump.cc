/**
 * @file
 * Trace inspection CLI for JSONL captures written by the telemetry
 * subsystem (cluster_driver --trace-out, or any JsonlTraceSink).
 *
 * Reconstructs per-job timelines from the two-level id scheme the
 * capture uses: driver-side events (node -1) carry the global arrival
 * sequence number as their job id, and each accepted arrival's
 * ArrivalPlaced event records which node took it and under which
 * node-local JobId — the key the node-side lifecycle events
 * (admitted, started, stolen, deadline outcome) are filed under.
 *
 * Usage:
 *   telemetry_dump trace.jsonl               # run summary
 *   telemetry_dump trace.jsonl --jobs        # every job timeline
 *   telemetry_dump trace.jsonl --job 17      # one arrival's timeline
 *   telemetry_dump trace.jsonl --steals      # steal/cancel histories
 *   telemetry_dump trace.jsonl --rejections  # rejection reasons
 *   telemetry_dump trace.jsonl --controller  # per-job retune timeline
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "telemetry/sink.hh"

using namespace cmpqos;

namespace
{

/** Cycles at the simulated 2GHz clock, human-scaled. */
std::string
cyc(unsigned long long t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.2fM", static_cast<double>(t) / 1e6);
    return buf;
}

struct Capture
{
    std::vector<TraceEvent> events;
    TraceMeta meta;
    bool hasMeta = false;
    /** Driver arrival seq -> indices of its driver-side events. */
    std::map<long long, std::vector<std::size_t>> bySeq;
    /** (node, local job) -> indices of node-side events. */
    std::map<std::pair<long long, long long>, std::vector<std::size_t>>
        byNodeJob;
    /** Driver arrival seq -> (node, local job), from ArrivalPlaced. */
    std::map<long long, std::pair<long long, long long>> placement;
};

Capture
load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        cmpqos_fatal("cannot open trace '%s'", path.c_str());
    Capture cap;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        TraceEvent e;
        if (!JsonlTraceSink::parseLine(line, e)) {
            if (JsonlTraceSink::parseMetaLine(line, cap.meta))
                cap.hasMeta = true;
            else
                std::fprintf(stderr,
                             "warning: skipping malformed line %zu\n",
                             lineno);
            continue;
        }
        const std::size_t idx = cap.events.size();
        if (e.node < 0) {
            cap.bySeq[e.job].push_back(idx);
            if (e.type == TraceEventType::ArrivalPlaced)
                cap.placement[e.job] = {static_cast<long long>(e.a),
                                        static_cast<long long>(e.b)};
        } else {
            cap.byNodeJob[{e.node, e.job}].push_back(idx);
        }
        cap.events.push_back(e);
    }
    return cap;
}

/** Render one event as a timeline row. */
void
printEvent(const TraceEvent &e)
{
    std::printf("  t=%-12s %-15s", cyc(e.time).c_str(),
                traceEventName(e.type));
    const TracePayloadKeys &k = payloadKeys(e.type);
    if (k.a != nullptr)
        std::printf(" %s=%llu", k.a, static_cast<unsigned long long>(e.a));
    if (k.b != nullptr)
        std::printf(" %s=%llu", k.b, static_cast<unsigned long long>(e.b));
    if (k.x != nullptr)
        std::printf(" %s=%.9g", k.x, e.x);
    if (k.name != nullptr)
        std::printf(" %s=%s", k.name, e.name);
    std::printf("\n");
}

void
printJob(const Capture &cap, long long seq)
{
    auto it = cap.bySeq.find(seq);
    if (it == cap.bySeq.end()) {
        std::printf("arrival %lld: no driver events in capture\n", seq);
        return;
    }
    const TraceEvent &first = cap.events[it->second.front()];
    const char *name_key = payloadKeys(first.type).name;
    const bool has_benchmark = name_key != nullptr &&
                               std::string_view(name_key) == "benchmark" &&
                               first.name[0] != '\0';
    std::printf("arrival %lld (%s)\n", seq,
                has_benchmark ? first.name : "?");
    for (const std::size_t idx : it->second)
        printEvent(cap.events[idx]);
    auto pl = cap.placement.find(seq);
    if (pl == cap.placement.end())
        return;
    std::printf("  [node %lld, local job %lld]\n", pl->second.first,
                pl->second.second);
    auto nj = cap.byNodeJob.find(pl->second);
    if (nj == cap.byNodeJob.end())
        return;
    for (const std::size_t idx : nj->second)
        printEvent(cap.events[idx]);
}

void
printSummary(const Capture &cap)
{
    std::map<std::string, std::size_t> byType;
    for (const auto &r : cap.events)
        ++byType[traceEventName(r.type)];
    std::printf("%zu events, %zu arrivals\n", cap.events.size(),
                cap.bySeq.size());
    if (cap.hasMeta)
        std::printf("meta: seed=%llu nodes=%d threads=%u drops=%llu "
                    "wall_seconds=%.9g\n",
                    static_cast<unsigned long long>(cap.meta.seed),
                    cap.meta.nodes, cap.meta.threads,
                    static_cast<unsigned long long>(cap.meta.drops),
                    cap.meta.wallSeconds);
    std::printf("events by type:\n");
    for (const auto &[name, count] : byType)
        std::printf("  %6zu  %s\n", count, name.c_str());
}

void
printRejections(const Capture &cap)
{
    std::map<std::string, std::size_t> reasons;
    std::size_t total = 0;
    for (const auto &r : cap.events) {
        if (r.type != TraceEventType::JobRejected)
            continue;
        ++total;
        ++reasons[r.name];
    }
    std::printf("%zu rejections\n", total);
    for (const auto &[reason, count] : reasons)
        std::printf("  %6zu  %s\n", count, reason.c_str());
}

/** Per-(node, local job) timelines of the events @p keep selects;
 *  false when nothing matched. */
template <typename Keep>
bool
printTimelines(const Capture &cap, Keep keep)
{
    bool any = false;
    for (const auto &[key, indices] : cap.byNodeJob) {
        bool header = false;
        for (const std::size_t idx : indices) {
            if (!keep(cap.events[idx].type))
                continue;
            if (!header)
                std::printf("node %lld, job %lld:\n", key.first,
                            key.second);
            header = any = true;
            printEvent(cap.events[idx]);
        }
    }
    return any;
}

void
printSteals(const Capture &cap)
{
    const bool any = printTimelines(cap, [](TraceEventType t) {
        return t == TraceEventType::WayStolen ||
               t == TraceEventType::WayReturned ||
               t == TraceEventType::StealCancelled;
    });
    if (!any)
        std::printf("no steal activity in capture\n");
}

void
printFaults(const Capture &cap)
{
    auto isFault = [](TraceEventType t) {
        switch (t) {
          case TraceEventType::NodeCrashed:
          case TraceEventType::NodeRestarted:
          case TraceEventType::ProbeDropped:
          case TraceEventType::ProbeTimeout:
          case TraceEventType::DuplicateReplyDropped:
          case TraceEventType::QuantumStalled:
          case TraceEventType::JobFailed:
          case TraceEventType::JobRelocated:
            return true;
          default:
            return false;
        }
    };
    std::map<std::string, std::size_t> byType;
    std::size_t total = 0;
    for (const auto &r : cap.events) {
        if (!isFault(r.type))
            continue;
        ++total;
        ++byType[traceEventName(r.type)];
    }
    std::printf("%zu fault/recovery events\n", total);
    for (const auto &[name, count] : byType)
        std::printf("  %6zu  %s\n", count, name.c_str());
    for (const auto &r : cap.events)
        if (isFault(r.type))
            printEvent(r);
}

void
printController(const Capture &cap)
{
    auto isControl = [](TraceEventType t) {
        return t == TraceEventType::ControllerRetune ||
               t == TraceEventType::FrequencyChanged;
    };
    std::map<std::string, std::size_t> byKnob;
    std::size_t total = 0;
    for (const auto &r : cap.events) {
        if (!isControl(r.type))
            continue;
        ++total;
        if (r.type == TraceEventType::ControllerRetune)
            ++byKnob[r.name];
    }
    std::printf("%zu controller events\n", total);
    for (const auto &[knob, count] : byKnob)
        std::printf("  %6zu  %s\n", count, knob.c_str());

    // Per-job retune timelines, in (node, local job) order. Frequency
    // residue resets carry job=-1 and are listed per node first.
    printTimelines(cap, isControl);
    if (total == 0)
        std::printf("no controller activity in capture\n");
}

void
usage(const char *argv0)
{
    std::printf("usage: %s TRACE.jsonl [--jobs | --job SEQ | --steals "
                "| --rejections | --faults | --controller]\n",
                argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (handleVersionFlag("telemetry_dump", argc, argv))
        return 0;
    std::string path;
    std::string mode = "summary";
    long long seq = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--jobs") {
            mode = "jobs";
        } else if (arg == "--job") {
            if (i + 1 >= argc)
                cmpqos_fatal("--job needs a sequence number");
            mode = "job";
            seq = std::atoll(argv[++i]);
        } else if (arg == "--steals") {
            mode = "steals";
        } else if (arg == "--rejections") {
            mode = "rejections";
        } else if (arg == "--faults") {
            mode = "faults";
        } else if (arg == "--controller") {
            mode = "controller";
        } else if (path.empty()) {
            path = arg;
        } else {
            usage(argv[0]);
            cmpqos_fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (path.empty()) {
        usage(argv[0]);
        return 1;
    }

    const Capture cap = load(path);
    if (mode == "summary") {
        printSummary(cap);
    } else if (mode == "jobs") {
        for (const auto &[s, _] : cap.bySeq)
            printJob(cap, s);
    } else if (mode == "job") {
        printJob(cap, seq);
    } else if (mode == "steals") {
        printSteals(cap);
    } else if (mode == "rejections") {
        printRejections(cap);
    } else if (mode == "faults") {
        printFaults(cap);
    } else if (mode == "controller") {
        printController(cap);
    }
    return 0;
}
