/**
 * @file
 * Cluster simulation driver: run a multi-node CMP cluster under an
 * open-loop arrival stream (Poisson or trace file) and export
 * per-node / cluster-wide metrics as JSONL and CSV.
 *
 * Examples:
 *   cluster_driver --nodes 8 --threads 4 --jobs 200 --seed 7
 *   cluster_driver --nodes 4 --duration 50000000 --mean-interarrival 250000
 *   cluster_driver --trace arrivals.txt --jsonl run.jsonl --csv run.csv
 *   cluster_driver --jobs 100 --trace-out run-trace.jsonl \
 *                  --trace-chrome run-trace.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "cluster/engine.hh"
#include "common/build_info.hh"
#include "common/logging.hh"
#include "control/config.hh"
#include "fault/plan.hh"
#include "federation/federated_engine.hh"
#include "telemetry/collector.hh"

using namespace cmpqos;

namespace
{

void
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "  --nodes N              CMP nodes in the cluster (default 8)\n"
        "  --threads T            worker threads, 0 = hardware (default 0)\n"
        "  --jobs J               Poisson stream length (default 64)\n"
        "  --mean-interarrival C  mean arrival gap in cycles (default 500000)\n"
        "  --instructions I       instructions per job (default 2000000)\n"
        "  --duration C           run-for-duration horizon in cycles\n"
        "                         (default 0 = run to completion)\n"
        "  --quantum C            placement quantum in cycles (default 2000000)\n"
        "  --policy P             first-fit | earliest-slot | least-loaded\n"
        "                         (default least-loaded)\n"
        "  --no-negotiate         reject instead of renegotiating deadlines\n"
        "  --seed S               cluster seed (default 1)\n"
        "  --trace FILE           replay arrivals from FILE instead of Poisson\n"
        "  --jsonl FILE           append the metrics snapshot as JSONL\n"
        "  --csv FILE             write the per-node table as CSV\n"
        "  --trace-out FILE       write the event trace as JSONL (one event\n"
        "                         per line; inspect with telemetry_dump)\n"
        "  --trace-chrome FILE    write the event trace in Chrome trace-event\n"
        "                         JSON (open in chrome://tracing or Perfetto)\n"
        "  --trace-capacity N     per-producer ring slots (default 32768)\n"
        "  --fault-plan FILE      inject the fault plan in FILE (crash,\n"
        "                         restart, probe-drop, probe-timeout,\n"
        "                         dup-reply, slow-quantum directives;\n"
        "                         federated runs also take link-drop,\n"
        "                         link-dup, link-delay, partition)\n"
        "  --shards N             federate the engine over N shard\n"
        "                         controllers (default: single-process)\n"
        "  --transport T          shard transport: inproc | uds\n"
        "                         (default inproc; implies federation)\n"
        "  --shard-bin PATH       uds only: spawn PATH as a worker\n"
        "                         process per shard (default: serve\n"
        "                         threads in-process)\n"
        "  --elastic-x X          Silver tier Elastic(X) budget in [0, 1]\n"
        "                         (default 0.05)\n"
        "  --check-invariants     run the invariant oracle at every quantum\n"
        "                         barrier; exit 2 on any violation\n"
        "  --control SPEC         enable the per-node feedback controller;\n"
        "                         SPEC is a comma-separated key=value run\n"
        "                         (on, slack_low, slack_high, dynamic_slo,\n"
        "                         slo_slowdown, bw_step, min_window,\n"
        "                         p_static, dyn_coeff, power_cap) or just\n"
        "                         'on' for the defaults\n"
        "  --fingerprint          print the canonical metrics fingerprint\n"
        "                         (for replay verification)\n"
        "  --version              print the build identity and exit\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (handleVersionFlag("cluster_driver", argc, argv))
        return 0;

    ClusterConfig config;
    std::uint64_t jobs = 64;
    double mean_interarrival = 500'000.0;
    double elastic_x = 0.05;
    bool print_fingerprint = false;
    InstCount instructions = 2'000'000;
    Cycle duration = 0;
    std::string trace_path, jsonl_path, csv_path;
    std::string trace_out_path, trace_chrome_path;
    std::string fault_plan_path;
    TelemetryConfig telemetry_config;
    FaultPlan fault_plan;
    FederationConfig federation;
    bool federated = false;

    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            cmpqos_fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout);
            return 0;
        } else if (arg == "--nodes") {
            config.nodes = std::atoi(value(i));
        } else if (arg == "--threads") {
            config.threads =
                static_cast<unsigned>(std::atoi(value(i)));
        } else if (arg == "--jobs") {
            jobs = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--mean-interarrival") {
            mean_interarrival = std::atof(value(i));
        } else if (arg == "--instructions") {
            instructions = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--duration") {
            duration = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--quantum") {
            config.quantum = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--policy") {
            const char *name = value(i);
            if (!parseGacPolicy(name, config.policy))
                cmpqos_fatal("unknown policy '%s' (want first-fit, "
                             "earliest-slot or least-loaded)",
                             name);
        } else if (arg == "--no-negotiate") {
            config.negotiate = false;
        } else if (arg == "--seed") {
            config.seed = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--trace") {
            trace_path = value(i);
        } else if (arg == "--jsonl") {
            jsonl_path = value(i);
        } else if (arg == "--csv") {
            csv_path = value(i);
        } else if (arg == "--trace-out") {
            trace_out_path = value(i);
        } else if (arg == "--trace-chrome") {
            trace_chrome_path = value(i);
        } else if (arg == "--trace-capacity") {
            telemetry_config.ringCapacity =
                std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--fault-plan") {
            fault_plan_path = value(i);
        } else if (arg == "--shards") {
            federation.shards = std::atoi(value(i));
            federated = true;
        } else if (arg == "--transport") {
            if (!parseFedTransport(value(i), federation.transport))
                cmpqos_fatal("unknown transport '%s' (want inproc or "
                             "uds)",
                             argv[i]);
            federated = true;
        } else if (arg == "--shard-bin") {
            federation.shardBinary = value(i);
            federated = true;
        } else if (arg == "--elastic-x") {
            elastic_x = std::atof(value(i));
            if (elastic_x < 0.0 || elastic_x > 1.0)
                cmpqos_fatal("--elastic-x wants a fraction in [0, 1]");
        } else if (arg == "--check-invariants") {
            config.checkInvariants = true;
        } else if (arg == "--control") {
            std::string spec_err;
            if (!parseControllerSpec(value(i), config.control,
                                     spec_err))
                cmpqos_fatal("--control: %s", spec_err.c_str());
        } else if (arg == "--fingerprint") {
            print_fingerprint = true;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0], stderr);
            return 2;
        }
    }

    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = instructions;
    mix.tiers[static_cast<std::size_t>(QosTier::Silver)].mode =
        ModeSpec::elastic(elastic_x);
    std::unique_ptr<ArrivalProcess> arrivals;
    if (!trace_path.empty()) {
        arrivals = std::make_unique<TraceArrivalProcess>(trace_path, mix);
    } else {
        if (duration == 0 && jobs == 0)
            cmpqos_fatal("an unbounded Poisson stream (--jobs 0) needs "
                         "--duration");
        arrivals = std::make_unique<PoissonArrivalProcess>(
            mean_interarrival, mix, config.seed ^ 0xa11a1ULL, jobs);
    }

    // Telemetry: one collector for the run, sinks opened up front so
    // a failure to open aborts before any simulation work happens.
    std::unique_ptr<TraceCollector> collector;
    std::ofstream trace_out_file, trace_chrome_file;
    std::unique_ptr<JsonlTraceSink> jsonl_sink;
    std::unique_ptr<ChromeTraceSink> chrome_sink;
    if (!trace_out_path.empty() || !trace_chrome_path.empty()) {
        collector = std::make_unique<TraceCollector>(config.nodes + 1,
                                                     telemetry_config);
        if (!trace_out_path.empty()) {
            trace_out_file.open(trace_out_path);
            if (!trace_out_file)
                cmpqos_fatal("cannot open trace file '%s'",
                             trace_out_path.c_str());
            jsonl_sink =
                std::make_unique<JsonlTraceSink>(trace_out_file);
            collector->addSink(jsonl_sink.get());
        }
        if (!trace_chrome_path.empty()) {
            trace_chrome_file.open(trace_chrome_path);
            if (!trace_chrome_file)
                cmpqos_fatal("cannot open trace file '%s'",
                             trace_chrome_path.c_str());
            chrome_sink =
                std::make_unique<ChromeTraceSink>(trace_chrome_file);
            collector->addSink(chrome_sink.get());
        }
        config.telemetry = collector.get();
    }

    if (!fault_plan_path.empty()) {
        // Parsed here; the engine validates it against its topology.
        fault_plan = FaultPlan::parseFile(fault_plan_path);
        config.faultPlan = &fault_plan;
    }

    // Shard-side telemetry rings mirror the hub's capacity so drop
    // behaviour matches the single-process engine.
    federation.telemetryRing = telemetry_config.ringCapacity;
    const std::unique_ptr<ClusterEngine> engine =
        federated ? std::make_unique<FederatedEngine>(config, federation)
                  : std::make_unique<ClusterEngine>(config);
    std::printf("cluster: %d nodes, %u threads, %s placement, seed %llu\n",
                config.nodes, engine->numThreads(),
                gacPolicyName(config.policy),
                static_cast<unsigned long long>(config.seed));
    if (federated)
        std::printf("federation: %d shards over %s transport%s%s\n",
                    engine->numShards(),
                    fedTransportName(federation.transport),
                    federation.shardBinary.empty() ? ""
                                                   : ", worker ",
                    federation.shardBinary.c_str());
    if (!fault_plan.empty())
        std::printf("fault plan: %zu directives (%s)\n",
                    fault_plan.faults.size(),
                    fault_plan.summary().c_str());

    const ClusterMetrics m =
        duration == 0 ? engine->runToCompletion(*arrivals)
                      : engine->runForDuration(*arrivals, duration);

    std::printf("\n%-26s %llu\n", "jobs submitted",
                static_cast<unsigned long long>(m.submitted));
    std::printf("%-26s %llu (%.1f%%), %llu negotiated\n", "accepted",
                static_cast<unsigned long long>(m.accepted),
                100.0 * m.acceptRate(),
                static_cast<unsigned long long>(m.negotiated));
    std::printf("%-26s %llu\n", "rejected",
                static_cast<unsigned long long>(m.rejected));
    std::printf("%-26s gold %llu / silver %llu / bronze %llu\n",
                "accepted by tier",
                static_cast<unsigned long long>(m.acceptedByTier[0]),
                static_cast<unsigned long long>(m.acceptedByTier[1]),
                static_cast<unsigned long long>(m.acceptedByTier[2]));
    std::printf("%-26s %llu\n", "completed",
                static_cast<unsigned long long>(m.completed));
    // Modes that never completed a job have no hit rate (NaN).
    auto rate = [](const ModeTally &t) {
        if (!t.hasHitRate())
            return std::string("n/a");
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.3f", t.hitRate());
        return std::string(buf);
    };
    std::printf("%-26s strict %s / elastic %s / opportunistic %s\n",
                "deadline hit rate", rate(m.byMode[0]).c_str(),
                rate(m.byMode[1]).c_str(), rate(m.byMode[2]).c_str());
    std::printf("%-26s %.1fM cycles\n", "cluster virtual time",
                static_cast<double>(m.virtualTime) / 1e6);
    std::printf("%-26s %.3fs wall (%.1f jobs/s)\n", "host time",
                m.wallSeconds, m.jobsPerWallSecond());
    for (const auto &n : m.nodes)
        std::printf("  node %-3d placed %-4llu completed %-4llu "
                    "util %.2f stolen-ways %llu%s\n",
                    n.node, static_cast<unsigned long long>(n.placed),
                    static_cast<unsigned long long>(n.completed),
                    n.utilisation,
                    static_cast<unsigned long long>(n.stolenWays),
                    n.alive ? "" : " [down]");
    if (m.faults.any())
        std::printf("%-26s %llu crashes, %llu restarts, %llu failed, "
                    "%llu relocated (%llu downgraded, %llu rejected), "
                    "%llu probes dropped, %llu probe timeouts, "
                    "%llu dup replies, %llu stalled quanta\n",
                    "faults",
                    static_cast<unsigned long long>(m.faults.crashes),
                    static_cast<unsigned long long>(m.faults.restarts),
                    static_cast<unsigned long long>(m.faults.failedJobs),
                    static_cast<unsigned long long>(
                        m.faults.relocated +
                        m.faults.relocationDowngraded),
                    static_cast<unsigned long long>(
                        m.faults.relocationDowngraded),
                    static_cast<unsigned long long>(
                        m.faults.relocationRejected),
                    static_cast<unsigned long long>(
                        m.faults.probesDropped),
                    static_cast<unsigned long long>(
                        m.faults.probeTimeouts),
                    static_cast<unsigned long long>(
                        m.faults.duplicateReplies),
                    static_cast<unsigned long long>(
                        m.faults.stalledQuanta));
    if (m.faults.linkDrops || m.faults.linkDups ||
        m.faults.linkDelayCycles || m.faults.partitionedQuanta)
        std::printf("%-26s %llu drops, %llu dups, %llu delay cycles, "
                    "%llu partitioned quanta\n",
                    "shard links",
                    static_cast<unsigned long long>(m.faults.linkDrops),
                    static_cast<unsigned long long>(m.faults.linkDups),
                    static_cast<unsigned long long>(
                        m.faults.linkDelayCycles),
                    static_cast<unsigned long long>(
                        m.faults.partitionedQuanta));

    if (m.controllerOn)
        std::printf("%-26s %llu retunes (%llu freq+, %llu freq-, "
                    "%llu way+, %llu way-, %llu bw+, %llu bw-), "
                    "energy %.1f\n",
                    "controller",
                    static_cast<unsigned long long>(m.control.retunes),
                    static_cast<unsigned long long>(
                        m.control.freqBoosts),
                    static_cast<unsigned long long>(
                        m.control.freqDrops),
                    static_cast<unsigned long long>(
                        m.control.wayGrants),
                    static_cast<unsigned long long>(
                        m.control.wayReturns),
                    static_cast<unsigned long long>(
                        m.control.bwGrants),
                    static_cast<unsigned long long>(
                        m.control.bwReturns),
                    m.energy);

    if (print_fingerprint)
        std::printf("fingerprint %s\n", m.fingerprint().c_str());

    if (!jsonl_path.empty())
        MetricsExporter::writeJsonlFile(m, jsonl_path);
    if (!csv_path.empty())
        MetricsExporter::writeCsvFile(m, csv_path);

    if (collector != nullptr) {
        collector->finish(config.seed, engine->numThreads(),
                          m.wallSeconds);
        std::printf("%-26s %llu events (%llu dropped)\n", "trace",
                    static_cast<unsigned long long>(
                        collector->eventsDelivered()),
                    static_cast<unsigned long long>(
                        collector->totalDrops()));
    }

    if (config.checkInvariants) {
        const std::uint64_t violations = engine->invariantViolations();
        std::printf("%-26s %llu checks, %llu violations\n",
                    "invariants",
                    static_cast<unsigned long long>(
                        engine->invariantChecksRun()),
                    static_cast<unsigned long long>(violations));
        if (violations != 0) {
            std::printf("%s", engine->invariantReport().c_str());
            // Reproducer: seed + plan fully replays the failure.
            std::string topology;
            if (federated)
                topology = " --shards " +
                           std::to_string(federation.shards) +
                           " --transport " +
                           fedTransportName(federation.transport);
            std::printf("reproducer: --seed %llu --nodes %d "
                        "--quantum %llu%s%s%s\n",
                        static_cast<unsigned long long>(config.seed),
                        config.nodes,
                        static_cast<unsigned long long>(
                            config.quantum),
                        topology.c_str(),
                        fault_plan.empty() ? "" : " --fault-plan ",
                        fault_plan.empty()
                            ? ""
                            : fault_plan_path.c_str());
            return 2;
        }
    }
    return 0;
}
