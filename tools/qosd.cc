/**
 * @file
 * qosd — the persistent admission-service daemon.
 *
 * Wraps one QosDaemon: binds the requested transport (Unix-domain
 * socket or loopback TCP), runs the event loop until a
 * Drain{shutdown=1} arrives from a client or SIGINT/SIGTERM is
 * delivered, and exits 0 once the final epoch drained and its journal
 * closed. Every accepted submission is journalled so the whole run
 * can be replayed bit-identically by the `# replay:` command in each
 * journal's header.
 *
 * Examples:
 *   qosd --socket /tmp/qosd.sock --nodes 8 --threads 4
 *   qosd --tcp 7421 --quantum 1000000 --journal-dir /tmp/qosd-journal
 *   qosctl --socket /tmp/qosd.sock drain --shutdown
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/build_info.hh"
#include "common/thread_pool.hh"
#include "service/daemon.hh"
#include "tool_flags.hh"

using namespace cmpqos;

namespace
{

void
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "  --socket PATH          listen on a Unix-domain socket\n"
        "  --tcp PORT             listen on loopback TCP instead\n"
        "  --journal-dir DIR      journal directory (default\n"
        "                         qosd-journal); epoch N writes\n"
        "                         DIR/epoch-NNNN.trace\n"
        "  --nodes N              CMP nodes per epoch (default 8)\n"
        "  --threads T            engine worker threads, 0 = hardware\n"
        "                         (default 0; never affects results)\n"
        "  --shards N             run each epoch on a federated\n"
        "                         engine with N shards (default 1;\n"
        "                         never affects results)\n"
        "  --shard-transport T    shard link transport, inproc | uds\n"
        "                         (default inproc)\n"
        "  --quantum C            placement quantum in cycles\n"
        "                         (default 2000000)\n"
        "  --seed S               cluster seed (default 1)\n"
        "  --policy P             first-fit | earliest-slot |\n"
        "                         least-loaded (default least-loaded)\n"
        "  --no-negotiate         reject instead of renegotiating\n"
        "  --elastic-x X          Silver tier Elastic(X) budget\n"
        "                         (default 0.05)\n"
        "  --arrival-gap C        auto-assigned arrival spacing in\n"
        "                         cycles (default 250000)\n"
        "  --instructions I       default instructions per job\n"
        "                         (default 2000000)\n"
        "  --no-check-invariants  skip the invariant oracle\n"
        "                         (--negotiate and --check-invariants\n"
        "                         restore the defaults)\n"
        "  --control SPEC         enable the per-node feedback\n"
        "                         controller (SPEC as for\n"
        "                         cluster_driver --control)\n"
        "  --max-frame BYTES      per-connection frame ceiling\n"
        "                         (default 65536)\n"
        "  --trace-capacity N     telemetry ring slots per producer\n"
        "                         (default 32768)\n"
        "  --quiet                suppress operator log lines\n"
        "  --version              print the build identity and exit\n",
        argv0);
}

int g_shutdown_fd = -1;

void
onSignal(int)
{
    // Async-signal-safe: one byte on the daemon's self-pipe requests
    // the same graceful drain-and-shutdown a Drain{shutdown=1} does.
    const char byte = 1;
    if (g_shutdown_fd >= 0)
        (void)!::write(g_shutdown_fd, &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    if (handleVersionFlag("qosd", argc, argv))
        return 0;

    QosDaemon::Options opts;
    auto value = [&](int &i) { return flagValue(argc, argv, i); };
    for (int i = 1; i < argc; ++i) {
        std::string err;
        if (readEpochFlag(opts.epoch, /*replayed_only=*/false, argc, argv, i,
                          err)) {
            if (!err.empty())
                refuse(argv[0], err);
            continue;
        }
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout);
            return 0;
        } else if (arg == "--socket") {
            opts.socketPath = value(i);
        } else if (arg == "--tcp") {
            readFlag(argv[0], arg, value(i), opts.tcpPort,
                     "a port in [1, 65535]", 1, 65535);
        } else if (arg == "--journal-dir") {
            opts.journalDir = value(i);
        } else if (arg == "--threads") {
            readFlag(argv[0], arg, value(i), opts.threads,
                     "a thread count in [0, 1024]", 0,
                     ThreadPool::maxThreads);
        } else if (arg == "--shards") {
            readFlag(argv[0], arg, value(i), opts.shards,
                     "a shard count in [1, --nodes]", 1, 4096);
        } else if (arg == "--shard-transport") {
            const std::string name = value(i);
            if (!parseFedTransport(name, opts.shardTransport))
                refuse(argv[0], "unknown shard transport '" + name +
                                    "' (inproc | uds)");
        } else if (arg == "--max-frame") {
            readFlag(argv[0], arg, value(i), opts.maxFrame,
                     "a byte count of at least 64", 64);
        } else if (arg == "--trace-capacity") {
            readFlag(argv[0], arg, value(i), opts.traceCapacity,
                     "a slot count in [1, 2^24]", 1, maxRingCapacity);
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0], stderr);
            return 2;
        }
    }
    if (opts.socketPath.empty() && opts.tcpPort <= 0) {
        std::fprintf(stderr,
                     "%s: no transport: give --socket PATH or "
                     "--tcp PORT\n",
                     argv[0]);
        usage(argv[0], stderr);
        return 2;
    }

    QosDaemon daemon(opts);
    std::string err;
    if (!daemon.start(err)) {
        std::fprintf(stderr, "qosd: %s\n", err.c_str());
        return 1;
    }

    g_shutdown_fd = daemon.shutdownFd();
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A subscriber that disconnects mid-write must not kill the
    // daemon; writes see EPIPE instead.
    std::signal(SIGPIPE, SIG_IGN);

    if (!opts.quiet)
        std::printf("%s\n", buildInfoLine("qosd").c_str());
    daemon.run();

    const QosDaemon::ConnStats &cs = daemon.connStats();
    if (!opts.quiet)
        std::printf("qosd: %llu epochs, %llu connections "
                    "(%llu malformed frames, %llu mid-frame "
                    "disconnects)\n",
                    static_cast<unsigned long long>(
                        daemon.epochsCompleted()),
                    static_cast<unsigned long long>(cs.accepted),
                    static_cast<unsigned long long>(cs.malformed),
                    static_cast<unsigned long long>(
                        cs.midFrameDisconnects));
    return 0;
}
