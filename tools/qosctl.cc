/**
 * @file
 * qosctl — command-line client for qosd.
 *
 * One subcommand per protocol request, built on the QosClient
 * library, so the CLI, the tests and any embedding all exercise the
 * same code path:
 *
 *   qosctl --socket /tmp/qosd.sock status
 *   qosctl --socket /tmp/qosd.sock submit --benchmark bzip2 \
 *          --tier gold --count 100
 *   qosctl --socket /tmp/qosd.sock subscribe --max-events 20
 *   qosctl --socket /tmp/qosd.sock reconfig quantum=1000000 nodes=4
 *   qosctl --socket /tmp/qosd.sock drain --shutdown
 *
 * --jsonl switches the connection to the debug framing (same daemon
 * logic, human-readable wire). Exit codes: 0 success, 1 runtime /
 * daemon error, 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/build_info.hh"
#include "service/client.hh"
#include "tool_flags.hh"

using namespace cmpqos;

namespace
{

void
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [--socket PATH | --tcp PORT] [--jsonl] "
        "<command> [args]\n"
        "commands:\n"
        "  status                 print the daemon's live counters\n"
        "  submit [--benchmark B] [--tier gold|silver|bronze]\n"
        "         [--instructions I] [--time T] [--count N] [--quiet]\n"
        "                         offer N jobs (default 1) and print\n"
        "                         each admission verdict\n"
        "  subscribe [--max-events N]\n"
        "                         stream telemetry events (forever\n"
        "                         when N is omitted)\n"
        "  reconfig KEY=VALUE...  drain the epoch, reopen under the\n"
        "                         new configuration\n"
        "  drain [--shutdown]     finish the current epoch; with\n"
        "                         --shutdown also stop the daemon\n"
        "options:\n"
        "  --socket PATH          daemon Unix-domain socket\n"
        "  --tcp PORT             daemon loopback TCP port\n"
        "  --jsonl                speak the JSONL debug framing\n"
        "  --version              print the build identity and exit\n",
        argv0);
}

int
die(const std::string &err)
{
    std::fprintf(stderr, "qosctl: %s\n", err.c_str());
    return 1;
}

/** Usage error for an argument the command does not take. */
int
unknownOption(const char *argv0, const std::string &arg)
{
    std::fprintf(stderr, "%s: unknown option '%s'\n", argv0, arg.c_str());
    usage(argv0, stderr);
    return 2;
}

const char *
outcomeName(std::uint8_t outcome)
{
    switch (static_cast<AdmitOutcome>(outcome)) {
      case AdmitOutcome::Rejected: return "rejected";
      case AdmitOutcome::Accepted: return "accepted";
      case AdmitOutcome::Negotiated: return "negotiated";
    }
    return "?";
}

// Each command reads all its arguments before it dials the daemon, so
// a bad one is a usage error (exit 2), not a connect retry loop.

int
cmdStatus(QosClient &client, const std::vector<std::string> &args,
          const char *argv0)
{
    if (!args.empty())
        return unknownOption(argv0, args[0]);
    StatusReply r;
    std::string err;
    if (!client.connect(err) || !client.status(r, err))
        return die(err);
    std::printf("epoch        %llu (%s)\n",
                static_cast<unsigned long long>(r.epoch),
                r.state == 0 ? "running" : "draining");
    std::printf("submitted    %llu\n",
                static_cast<unsigned long long>(r.submitted));
    std::printf("accepted     %llu (%llu negotiated)\n",
                static_cast<unsigned long long>(r.accepted),
                static_cast<unsigned long long>(r.negotiated));
    std::printf("rejected     %llu\n",
                static_cast<unsigned long long>(r.rejected));
    std::printf("completed    %llu\n",
                static_cast<unsigned long long>(r.completed));
    std::printf("virtual time %llu\n",
                static_cast<unsigned long long>(r.virtualTime));
    std::printf("sessions     %u\n", r.sessions);
    return 0;
}

int
cmdSubmit(QosClient &client, const std::vector<std::string> &args,
          const char *argv0)
{
    Submit req;
    req.benchmark = "bzip2";
    std::uint64_t count = 1;
    bool quiet = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                refuse(argv0, "missing value for " + arg);
            return args[++i];
        };
        if (arg == "--benchmark") {
            req.benchmark = value();
        } else if (arg == "--tier") {
            QosTier tier;
            const std::string &name = value();
            if (!parseQosTier(name, tier))
                refuse(argv0, arg + " " + name +
                                  ": want gold, silver or bronze");
            req.tier = static_cast<std::uint8_t>(tier);
        } else if (arg == "--instructions") {
            readFlag(argv0, arg, value(), req.instructions,
                     "an instruction count");
        } else if (arg == "--time") {
            readFlag(argv0, arg, value(), req.time, "a cycle count");
        } else if (arg == "--count") {
            readFlag(argv0, arg, value(), count, "a job count");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return unknownOption(argv0, arg);
        }
    }
    if (count == 0)
        return 0;

    std::uint64_t accepted = 0, negotiated = 0, rejected = 0,
                  refused = 0;
    std::string err;
    if (!client.connect(err))
        return die(err);
    for (std::uint64_t n = 0; n < count; ++n) {
        req.ticket = static_cast<std::uint32_t>(n + 1);
        SubmitReply reply;
        if (!client.submit(req, reply, err))
            return die(err);
        if (!reply.error.empty()) {
            ++refused;
            if (!quiet)
                std::printf("seq -    refused: %s\n",
                            reply.error.c_str());
            continue;
        }
        switch (static_cast<AdmitOutcome>(reply.outcome)) {
          case AdmitOutcome::Accepted: ++accepted; break;
          case AdmitOutcome::Negotiated:
            ++accepted;
            ++negotiated;
            break;
          case AdmitOutcome::Rejected: ++rejected; break;
        }
        if (!quiet)
            std::printf("seq %-4llu %s t=%llu node=%d slot=%llu "
                        "deadline=%.2f\n",
                        static_cast<unsigned long long>(reply.seq),
                        outcomeName(reply.outcome),
                        static_cast<unsigned long long>(reply.time),
                        reply.node,
                        static_cast<unsigned long long>(
                            reply.slotStart),
                        reply.deadlineFactor);
    }
    std::printf("submitted %llu: %llu accepted (%llu negotiated), "
                "%llu rejected, %llu refused\n",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(negotiated),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(refused));
    return 0;
}

int
cmdSubscribe(QosClient &client, const std::vector<std::string> &args,
             const char *argv0)
{
    std::uint64_t max_events = 0;
    bool bounded = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--max-events" && i + 1 < args.size()) {
            readFlag(argv0, args[i], args[i + 1], max_events,
                     "an event count");
            ++i;
            bounded = true;
        } else {
            return unknownOption(argv0, args[i]);
        }
    }
    std::string err;
    if (!client.connect(err) || !client.subscribe(true, err))
        return die(err);
    // Stderr marker so a harness can sequence on the subscription
    // being live before it starts generating events (events only
    // flow to sessions subscribed when they happen).
    std::fprintf(stderr, "subscribed\n");
    std::uint64_t seen = 0;
    while (!bounded || seen < max_events) {
        std::optional<EventMsg> buffered = client.takeEvent();
        EventMsg event;
        if (buffered) {
            event = std::move(*buffered);
        } else {
            Message m;
            if (!client.nextMessage(m, err)) {
                // The daemon closing the stream at shutdown is the
                // normal end of an unbounded subscription.
                if (!bounded &&
                    err == "daemon closed the connection")
                    return 0;
                return die(err);
            }
            auto *e = std::get_if<EventMsg>(&m);
            if (e == nullptr)
                continue;
            event = std::move(*e);
        }
        std::printf("%s\n", event.line.c_str());
        ++seen;
    }
    return 0;
}

int
cmdReconfig(QosClient &client, const std::vector<std::string> &args,
            const char *argv0)
{
    if (args.empty()) {
        std::fprintf(stderr, "%s: reconfig needs KEY=VALUE "
                             "directives\n",
                     argv0);
        usage(argv0, stderr);
        return 2;
    }
    std::string directives;
    for (const std::string &a : args) {
        if (!directives.empty())
            directives += ' ';
        directives += a;
    }
    ReconfigAck ack;
    std::string err;
    if (!client.connect(err) || !client.reconfig(directives, ack, err))
        return die(err);
    if (!ack.error.empty())
        return die("reconfig rejected: " + ack.error);
    std::printf("reconfigured; epoch %llu opens with: %s\n",
                static_cast<unsigned long long>(ack.epoch),
                directives.c_str());
    return 0;
}

int
cmdDrain(QosClient &client, const std::vector<std::string> &args,
         const char *argv0)
{
    bool shutdown = false;
    for (const std::string &a : args) {
        if (a == "--shutdown")
            shutdown = true;
        else
            return unknownOption(argv0, a);
    }
    DrainDone done;
    std::string err;
    if (!client.connect(err) || !client.drain(shutdown, done, err))
        return die(err);
    std::printf("epoch %llu drained: %llu submitted, %llu accepted, "
                "%llu completed\n",
                static_cast<unsigned long long>(done.epoch),
                static_cast<unsigned long long>(done.submitted),
                static_cast<unsigned long long>(done.accepted),
                static_cast<unsigned long long>(done.completed));
    std::printf("fingerprint %s\n", done.fingerprint.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (handleVersionFlag("qosctl", argc, argv))
        return 0;

    ClientOptions opts;
    opts.clientName = "qosctl";
    std::string command;
    std::vector<std::string> rest;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!command.empty()) {
            rest.push_back(arg);
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout);
            return 0;
        } else if (arg == "--socket") {
            opts.socketPath = flagValue(argc, argv, i);
        } else if (arg == "--tcp") {
            readFlag(argv[0], arg, flagValue(argc, argv, i), opts.tcpPort,
                     "a port in [1, 65535]", 1, 65535);
        } else if (arg == "--jsonl") {
            opts.mode = WireMode::Jsonl;
        } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            return unknownOption(argv[0], arg);
        } else {
            command = arg;
        }
    }
    if (command.empty()) {
        std::fprintf(stderr, "%s: no command given\n", argv[0]);
        usage(argv[0], stderr);
        return 2;
    }
    const bool known = command == "status" || command == "submit" ||
                       command == "subscribe" ||
                       command == "reconfig" || command == "drain";
    if (!known) {
        std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0],
                     command.c_str());
        usage(argv[0], stderr);
        return 2;
    }
    if (opts.socketPath.empty() && opts.tcpPort <= 0) {
        std::fprintf(stderr,
                     "%s: no transport: give --socket PATH or "
                     "--tcp PORT\n",
                     argv[0]);
        return 2;
    }

    QosClient client(opts);
    if (command == "status")
        return cmdStatus(client, rest, argv[0]);
    if (command == "submit")
        return cmdSubmit(client, rest, argv[0]);
    if (command == "subscribe")
        return cmdSubscribe(client, rest, argv[0]);
    if (command == "reconfig")
        return cmdReconfig(client, rest, argv[0]);
    return cmdDrain(client, rest, argv[0]);
}
