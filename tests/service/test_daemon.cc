/**
 * @file
 * In-process tests for the qosd daemon: the full network + engine
 * stack over a real unix-domain socket in a temp directory.
 *
 * The centrepiece is the replay-fidelity contract: a live session's
 * DrainDone fingerprint must be reproduced byte-identically by
 * rebuilding an engine from the journal header and replaying the
 * journal through TraceArrivalProcess — at 1, 2 and 4 worker
 * threads, with the invariant oracle enabled throughout. The
 * connection-fault tests drive the src/fault/connection.hh specs
 * against the live daemon and assert containment: bad frames drop
 * the connection, never the journal.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cluster/engine.hh"
#include "fault/connection.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/journal.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"

namespace cmpqos
{
namespace
{

/** A started daemon on a throwaway unix socket + journal dir, with
 *  run() on its own thread, torn down (files removed) on scope exit.
 *  The drain/shutdown that ends run() comes from the test body. */
class DaemonHarness
{
  public:
    explicit DaemonHarness(const EpochConfig &epoch,
                           unsigned threads = 2, int shards = 1,
                           FedTransport transport = FedTransport::Inproc)
    {
        static int instance = 0;
        const std::string tag = std::to_string(::getpid()) + "-" +
                                std::to_string(instance++);
        // sockaddr_un caps the path around 100 bytes; /tmp keeps it
        // well clear regardless of what TempDir() resolves to.
        socketPath_ = "/tmp/cmpqos-qosd-" + tag + ".sock";
        journalDir_ = "/tmp/cmpqos-qosd-journal-" + tag;
        QosDaemon::Options opts;
        opts.socketPath = socketPath_;
        opts.journalDir = journalDir_;
        opts.threads = threads;
        opts.shards = shards;
        opts.shardTransport = transport;
        opts.epoch = epoch;
        opts.quiet = true;
        daemon_.emplace(std::move(opts));
        std::string err;
        started_ = daemon_->start(err);
        EXPECT_TRUE(started_) << err;
        if (started_)
            net_ = std::thread([this] { daemon_->run(); });
    }

    ~DaemonHarness()
    {
        join();
        // Collect the journal paths while the daemon still exists;
        // they are removed once it has closed them.
        std::vector<std::string> journals;
        for (std::uint64_t e = 0; e <= daemon_->epochsCompleted(); ++e)
            journals.push_back(journalPathFor(e));
        daemon_.reset();
        for (const std::string &path : journals)
            std::remove(path.c_str());
        ::rmdir(journalDir_.c_str());
        std::remove(socketPath_.c_str());
    }

    bool started() const { return started_; }
    QosDaemon &daemon() { return *daemon_; }
    const std::string &socketPath() const { return socketPath_; }

    std::string
    journalPathFor(std::uint64_t epoch) const
    {
        return daemon_->journalPath(epoch);
    }

    /** Wait for run() to return (after a shutdown drain). */
    void
    join()
    {
        if (net_.joinable())
            net_.join();
    }

    ClientOptions
    clientOptions() const
    {
        ClientOptions c;
        c.socketPath = socketPath_;
        c.clientName = "test_daemon";
        return c;
    }

  private:
    std::string socketPath_;
    std::string journalDir_;
    std::optional<QosDaemon> daemon_;
    std::thread net_;
    bool started_ = false;
};

/** Small, fast epoch: full stack, oracle on, sub-second runtime. */
EpochConfig
smallEpoch()
{
    EpochConfig c;
    c.nodes = 4;
    c.quantum = 100'000;
    c.arrivalGap = 50'000;
    c.instructions = 200'000;
    c.checkInvariants = true;
    return c;
}

/** Rebuild an engine from the journal header and replay the journal
 *  through the trace arrival process — the programmatic equivalent of
 *  the header's `# replay:` cluster_driver command. */
std::string
replayFingerprint(const std::string &journal_path, unsigned threads)
{
    EpochConfig config;
    std::string err;
    if (!readJournalConfig(journal_path, config, err)) {
        ADD_FAILURE() << "readJournalConfig: " << err;
        return {};
    }
    TraceArrivalProcess trace(journal_path, epochMix(config));
    ClusterEngine engine(epochClusterConfig(config, threads));
    return engine.runToCompletion(trace).fingerprint();
}

/** Arrival (non-comment) lines in a journal file. */
std::uint64_t
journalArrivalLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::uint64_t n = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::size_t at = 0;
        while (at < line.size() &&
               (line[at] == ' ' || line[at] == '\t'))
            ++at;
        if (at < line.size() && line[at] != '#')
            ++n;
    }
    return n;
}

Submit
makeSubmit(std::uint32_t ticket)
{
    static const char *const benchmarks[] = {"bzip2", "hmmer",
                                             "gobmk"};
    Submit s;
    s.ticket = ticket;
    s.benchmark = benchmarks[ticket % 3];
    s.tier = static_cast<std::uint8_t>(ticket % numQosTiers);
    return s;
}

TEST(Daemon, LiveRunReplaysByteIdenticallyAtAnyThreadCount)
{
    DaemonHarness h(smallEpoch(), 2);
    ASSERT_TRUE(h.started());
    QosClient client(h.clientOptions());
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;
    EXPECT_EQ(client.serverInfo().nodes, 4u);
    EXPECT_EQ(client.serverInfo().epoch, 0u);
    EXPECT_FALSE(client.serverInfo().server.empty())
        << "handshake must carry the build-info line";

    constexpr std::uint32_t jobs = 30;
    for (std::uint32_t t = 1; t <= jobs; ++t) {
        SubmitReply reply;
        ASSERT_TRUE(client.submit(makeSubmit(t), reply, err)) << err;
        EXPECT_TRUE(reply.error.empty()) << reply.error;
        // seq is the 0-based global submission order == journal line
        // order; this client is the only submitter.
        EXPECT_EQ(reply.seq, t - 1)
            << "seq must follow journal line order";
        // The cluster is free to reject under load; the contract is
        // that every verdict is consistent, not that every job fits.
        if (reply.outcome ==
            static_cast<std::uint8_t>(AdmitOutcome::Rejected))
            EXPECT_EQ(reply.node, -1);
        else
            EXPECT_GE(reply.node, 0);
    }

    StatusReply status;
    ASSERT_TRUE(client.status(status, err)) << err;
    EXPECT_EQ(status.submitted, jobs);
    EXPECT_EQ(status.accepted + status.rejected, jobs);

    DrainDone done;
    ASSERT_TRUE(client.drain(/*shutdown=*/true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.epoch, 0u);
    EXPECT_EQ(done.submitted, jobs);
    EXPECT_GT(done.accepted, 0u);
    EXPECT_EQ(done.completed, done.accepted)
        << "a drained epoch finishes everything it admitted";
    ASSERT_FALSE(done.fingerprint.empty());

    const std::string journal = h.journalPathFor(0);
    EXPECT_EQ(journalArrivalLines(journal), jobs);
    for (const unsigned threads : {1u, 2u, 4u})
        EXPECT_EQ(replayFingerprint(journal, threads),
                  done.fingerprint)
            << "replay at " << threads << " threads diverged";
}

TEST(Daemon, FederatedEpochReplaysSingleProcessByteIdentically)
{
    // The federation acceptance criterion from the service side: an
    // epoch run on a FederatedEngine (2 shards over the UDS backend)
    // journals and fingerprints exactly like the single-process
    // engine, so its journal replays to the same fingerprint WITHOUT
    // federation at any thread count. Shard count, like thread
    // count, never leaks into results.
    DaemonHarness h(smallEpoch(), 2, /*shards=*/2, FedTransport::Uds);
    ASSERT_TRUE(h.started());
    QosClient client(h.clientOptions());
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;

    constexpr std::uint32_t jobs = 30;
    for (std::uint32_t t = 1; t <= jobs; ++t) {
        SubmitReply reply;
        ASSERT_TRUE(client.submit(makeSubmit(t), reply, err)) << err;
        EXPECT_TRUE(reply.error.empty()) << reply.error;
    }

    DrainDone done;
    ASSERT_TRUE(client.drain(/*shutdown=*/true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.submitted, jobs);
    ASSERT_FALSE(done.fingerprint.empty());

    const std::string journal = h.journalPathFor(0);
    EXPECT_EQ(journalArrivalLines(journal), jobs);
    for (const unsigned threads : {1u, 4u})
        EXPECT_EQ(replayFingerprint(journal, threads),
                  done.fingerprint)
            << "single-process replay at " << threads
            << " threads diverged from the federated live run";
}

TEST(Daemon, RefusedSubmissionsNeverTouchTheJournal)
{
    DaemonHarness h(smallEpoch());
    ASSERT_TRUE(h.started());
    QosClient client(h.clientOptions());
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;

    Submit bad = makeSubmit(1);
    bad.benchmark = "no-such-benchmark";
    SubmitReply reply;
    ASSERT_TRUE(client.submit(bad, reply, err)) << err;
    EXPECT_FALSE(reply.error.empty());

    bad = makeSubmit(2);
    bad.tier = 9;
    ASSERT_TRUE(client.submit(bad, reply, err)) << err;
    EXPECT_FALSE(reply.error.empty());

    SubmitReply good;
    ASSERT_TRUE(client.submit(makeSubmit(3), good, err)) << err;
    EXPECT_TRUE(good.error.empty()) << good.error;

    DrainDone done;
    ASSERT_TRUE(client.drain(true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.submitted, 1u)
        << "refused submissions must not reach admission";
    EXPECT_EQ(journalArrivalLines(h.journalPathFor(0)), 1u);
    EXPECT_EQ(replayFingerprint(h.journalPathFor(0), 2),
              done.fingerprint);
}

/** Submit @p bad between two good submits, then drain; the drain's
 *  fingerprint. Each bad submit must be refused with an error. */
std::string
fingerprintAround(const std::vector<Submit> &bad)
{
    DaemonHarness h(smallEpoch());
    EXPECT_TRUE(h.started());
    QosClient client(h.clientOptions());
    std::string err;
    EXPECT_TRUE(client.connect(err)) << err;
    SubmitReply reply;
    EXPECT_TRUE(client.submit(makeSubmit(1), reply, err)) << err;
    EXPECT_TRUE(reply.error.empty()) << reply.error;
    for (const Submit &m : bad) {
        EXPECT_TRUE(client.submit(m, reply, err)) << err;
        EXPECT_FALSE(reply.error.empty())
            << "time " << m.time << " instructions " << m.instructions
            << " was not refused";
    }
    // The daemon keeps serving after a refusal.
    EXPECT_TRUE(client.submit(makeSubmit(2), reply, err)) << err;
    EXPECT_TRUE(reply.error.empty()) << reply.error;
    DrainDone done;
    EXPECT_TRUE(client.drain(true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.submitted, 2u);
    EXPECT_EQ(journalArrivalLines(h.journalPathFor(0)), 2u);
    return done.fingerprint;
}

TEST(Daemon, OutOfRangeSubmitsAreRefused)
{
    // Values whose cycle arithmetic would overflow in the engine or
    // the LAC: refused like an unknown benchmark, never journaled.
    Submit late = makeSubmit(7);
    late.time = 18446744073709551615ULL;
    Submit huge = makeSubmit(8);
    huge.instructions = 18446744073709551615ULL;
    const std::string clean = fingerprintAround({});
    ASSERT_FALSE(clean.empty());
    EXPECT_EQ(fingerprintAround({late, huge}), clean);
}

TEST(Daemon, JobsPastTheirAddressWindowAreRefused)
{
    // A libquantum job this long would outgrow its address window,
    // which is fatal in its access stream: refused at the Submit, and
    // the daemon serves on.
    Submit longest = makeSubmit(7);
    longest.benchmark = "libquantum";
    longest.instructions =
        maxJobInstructions(BenchmarkRegistry::get("libquantum")) + 1;
    Submit past = longest;
    past.instructions = 12'000'000'000ULL;
    EXPECT_EQ(fingerprintAround({longest, past}), fingerprintAround({}));
}

TEST(Daemon, SubscriberReceivesEventStream)
{
    DaemonHarness h(smallEpoch());
    ASSERT_TRUE(h.started());
    QosClient client(h.clientOptions());
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;
    ASSERT_TRUE(client.subscribe(true, err)) << err;

    for (std::uint32_t t = 1; t <= 5; ++t) {
        SubmitReply reply;
        ASSERT_TRUE(client.submit(makeSubmit(t), reply, err)) << err;
    }
    DrainDone done;
    ASSERT_TRUE(client.drain(true, done, err)) << err;
    h.join();

    std::size_t events = 0;
    bool saw_json = false;
    while (auto e = client.takeEvent()) {
        ++events;
        if (!e->line.empty() && e->line.front() == '{')
            saw_json = true;
    }
    EXPECT_GT(events, 0u) << "subscriber saw no telemetry";
    EXPECT_TRUE(saw_json)
        << "events should be the self-describing JSONL lines";
}

TEST(Daemon, JsonlModeSpeaksTheSameProtocol)
{
    DaemonHarness h(smallEpoch());
    ASSERT_TRUE(h.started());
    ClientOptions opts = h.clientOptions();
    opts.mode = WireMode::Jsonl;
    QosClient client(opts);
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;
    SubmitReply reply;
    ASSERT_TRUE(client.submit(makeSubmit(1), reply, err)) << err;
    EXPECT_TRUE(reply.error.empty()) << reply.error;
    DrainDone done;
    ASSERT_TRUE(client.drain(true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.submitted, 1u);
    EXPECT_EQ(replayFingerprint(h.journalPathFor(0), 1),
              done.fingerprint);
}

TEST(Daemon, ReconfigRollsTheEpochUnderNewConfig)
{
    DaemonHarness h(smallEpoch());
    ASSERT_TRUE(h.started());
    QosClient client(h.clientOptions());
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;

    for (std::uint32_t t = 1; t <= 4; ++t) {
        SubmitReply reply;
        ASSERT_TRUE(client.submit(makeSubmit(t), reply, err)) << err;
        EXPECT_TRUE(reply.error.empty());
    }

    // A bad directive must change nothing.
    ReconfigAck ack;
    ASSERT_TRUE(client.reconfig("quantum=banana", ack, err)) << err;
    EXPECT_FALSE(ack.error.empty());

    ASSERT_TRUE(client.reconfig("seed=2 nodes=2", ack, err)) << err;
    EXPECT_TRUE(ack.error.empty()) << ack.error;
    EXPECT_EQ(ack.epoch, 1u);

    for (std::uint32_t t = 1; t <= 6; ++t) {
        SubmitReply reply;
        ASSERT_TRUE(client.submit(makeSubmit(t), reply, err)) << err;
        EXPECT_TRUE(reply.error.empty());
    }
    StatusReply status;
    ASSERT_TRUE(client.status(status, err)) << err;
    EXPECT_EQ(status.epoch, 1u);
    EXPECT_EQ(status.submitted, 10u)
        << "status counters aggregate across epochs";

    DrainDone done;
    ASSERT_TRUE(client.drain(true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.epoch, 1u);
    EXPECT_EQ(done.submitted, 6u);
    EXPECT_EQ(h.daemon().epochsCompleted(), 2u);

    // Epoch 0's journal replays self-consistently; epoch 1's replay
    // must land on the DrainDone fingerprint under the NEW config.
    const std::string j0 = h.journalPathFor(0);
    const std::string j1 = h.journalPathFor(1);
    EXPECT_EQ(journalArrivalLines(j0), 4u);
    EXPECT_EQ(journalArrivalLines(j1), 6u);
    EXPECT_EQ(replayFingerprint(j0, 1), replayFingerprint(j0, 4));
    EpochConfig c1;
    ASSERT_TRUE(readJournalConfig(j1, c1, err)) << err;
    EXPECT_EQ(c1.seed, 2u);
    EXPECT_EQ(c1.nodes, 2);
    EXPECT_EQ(replayFingerprint(j1, 2), done.fingerprint);
}

/** Submit four jobs to a 2-shard daemon, try @p reconfig (if any),
 *  then drain; the drain's fingerprint. A reconfig must be refused
 *  with an error naming nodes and shards. */
std::string
shardedFingerprint(const char *reconfig)
{
    DaemonHarness h(smallEpoch(), 2, /*shards=*/2);
    EXPECT_TRUE(h.started());
    QosClient client(h.clientOptions());
    std::string err;
    EXPECT_TRUE(client.connect(err)) << err;
    for (std::uint32_t t = 1; t <= 4; ++t) {
        SubmitReply reply;
        EXPECT_TRUE(client.submit(makeSubmit(t), reply, err)) << err;
        EXPECT_TRUE(reply.error.empty()) << reply.error;
    }
    if (reconfig != nullptr) {
        ReconfigAck ack;
        EXPECT_TRUE(client.reconfig(reconfig, ack, err)) << err;
        EXPECT_NE(ack.error.find("nodes=1"), std::string::npos)
            << "'" << ack.error << "' should name nodes";
        EXPECT_NE(ack.error.find("2 shards"), std::string::npos)
            << "'" << ack.error << "' should name shards";
        EXPECT_EQ(ack.epoch, 0u);
    }
    DrainDone done;
    EXPECT_TRUE(client.drain(true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.epoch, 0u);
    EXPECT_EQ(h.daemon().epochsCompleted(), 1u);
    return done.fingerprint;
}

TEST(Daemon, ReconfigBelowTheShardCountIsRefused)
{
    // Fewer nodes than shards would reach the federated engine's
    // shard-count assert at the next epoch; the daemon refuses the
    // reconfig instead and the epoch runs on unchanged.
    const std::string clean = shardedFingerprint(nullptr);
    ASSERT_FALSE(clean.empty());
    EXPECT_EQ(shardedFingerprint("seed=5 nodes=1"), clean);
}

TEST(Daemon, StartRefusesMoreShardsThanNodes)
{
    EpochConfig epoch = smallEpoch();
    epoch.nodes = 2;
    QosDaemon::Options opts;
    opts.socketPath = "/tmp/cmpqos-qosd-shards-" +
                      std::to_string(::getpid()) + ".sock";
    opts.journalDir = "/tmp/cmpqos-qosd-shards-journal-" +
                      std::to_string(::getpid());
    opts.shards = 3;
    opts.epoch = epoch;
    opts.quiet = true;
    QosDaemon daemon(opts);
    std::string err;
    EXPECT_FALSE(daemon.start(err));
    EXPECT_NE(err.find("nodes=2"), std::string::npos) << err;
    EXPECT_NE(err.find("3 shards"), std::string::npos) << err;
    // Refused before anything was made.
    EXPECT_NE(::access(opts.socketPath.c_str(), F_OK), 0);
    EXPECT_NE(::access(opts.journalDir.c_str(), F_OK), 0);
}

// --- connection-fault containment ----------------------------------

/** Raw (client-library-free) socket for driving hostile bytes. */
class RawConn
{
  public:
    explicit RawConn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
            ADD_FAILURE() << "socket: " << std::strerror(errno);
            return;
        }
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ADD_FAILURE() << "connect: " << std::strerror(errno);
            closeNow();
        }
    }

    bool ok() const { return fd_ >= 0; }

    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendAll(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << std::strerror(errno);
            off += static_cast<std::size_t>(n);
        }
    }

    /** Read until the daemon closes the connection (its reaction to
     *  a malformed frame); returns everything received. */
    std::string
    readToEof()
    {
        std::string out;
        char buf[1024];
        for (;;) {
            pollfd p{fd_, POLLIN, 0};
            // Generous bound: the daemon answers malformed input
            // immediately; this only trips if containment is broken.
            if (::poll(&p, 1, 10'000) <= 0) {
                ADD_FAILURE() << "daemon never closed the connection";
                return out;
            }
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n <= 0)
                return out;
            out.append(buf, static_cast<std::size_t>(n));
        }
    }

    /** Block for one chunk of reply bytes (e.g. the HelloAck). */
    std::string
    readSome()
    {
        char buf[1024];
        pollfd p{fd_, POLLIN, 0};
        if (::poll(&p, 1, 10'000) <= 0) {
            ADD_FAILURE() << "no reply from daemon";
            return {};
        }
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n <= 0) {
            ADD_FAILURE() << "daemon closed early";
            return {};
        }
        return std::string(buf, static_cast<std::size_t>(n));
    }

    void
    closeNow()
    {
        ::close(fd_);
        fd_ = -1;
    }

  private:
    int fd_ = -1;
};

/** Expect @p wire to hold one binary ErrorMsg with code Malformed. */
void
expectMalformedError(const std::string &wire)
{
    const DecodeResult r = decodeFrame(wire, WireMode::Binary);
    ASSERT_EQ(r.status, DecodeResult::Status::Ok) << r.error;
    const auto *e = std::get_if<ErrorMsg>(&r.message);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->code,
              static_cast<std::uint32_t>(ProtoError::Malformed));
}

TEST(Daemon, ConnectionFaultsAreContained)
{
    DaemonHarness h(smallEpoch());
    ASSERT_TRUE(h.started());
    const std::string hello =
        encodeMessage(Hello{protocolVersion, "attacker"},
                      WireMode::Binary);
    const std::string submit =
        encodeMessage(makeSubmit(1), WireMode::Binary);

    // Fault 1: length prefix claiming a megabyte. The daemon must
    // refuse at the prefix, not wait for payload.
    {
        RawConn conn(h.socketPath());
        ASSERT_TRUE(conn.ok());
        ConnFaultSpec f;
        f.type = ConnFaultType::OversizeFrame;
        f.param = 1 << 20;
        conn.sendAll(corruptFrame(submit, f));
        expectMalformedError(conn.readToEof());
    }

    // Fault 2: deterministic garbage. Seed chosen so the claimed
    // frame length exceeds the ceiling (first bytes are the length).
    {
        RawConn conn(h.socketPath());
        ASSERT_TRUE(conn.ok());
        ConnFaultSpec f;
        f.type = ConnFaultType::GarbageBytes;
        f.param = 256;
        f.seed = 7;
        const std::string junk = corruptFrame(submit, f);
        // Pin the property the seed was chosen for: binary mode with
        // an over-ceiling length claim.
        ASSERT_NE(junk[0], '{');
        ASSERT_EQ(decodeFrame(junk, WireMode::Binary).status,
                  DecodeResult::Status::Error);
        conn.sendAll(junk);
        expectMalformedError(conn.readToEof());
    }

    // Fault 3: the client vanishes mid-submission — honest handshake,
    // then a frame cut off after 3 bytes and an abrupt close.
    {
        RawConn conn(h.socketPath());
        ASSERT_TRUE(conn.ok());
        conn.sendAll(hello);
        // Complete the handshake (read the HelloAck) so the daemon
        // has nothing left to write and learns of the death from the
        // read side, deterministically.
        conn.readSome();
        ConnFaultSpec f;
        f.type = ConnFaultType::TruncateFrame;
        f.param = 3;
        conn.sendAll(corruptFrame(submit, f));
        conn.closeNow();
    }

    // An honest client on the same daemon, after the attacks.
    QosClient client(h.clientOptions());
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;
    SubmitReply reply;
    ASSERT_TRUE(client.submit(makeSubmit(1), reply, err)) << err;
    EXPECT_TRUE(reply.error.empty()) << reply.error;
    ASSERT_TRUE(client.submit(makeSubmit(2), reply, err)) << err;
    EXPECT_TRUE(reply.error.empty()) << reply.error;
    DrainDone done;
    ASSERT_TRUE(client.drain(true, done, err)) << err;
    h.join();

    // Containment: the journal holds exactly the honest submissions,
    // the replay still lands on the live fingerprint (oracle was on
    // the whole time), and the fault counters saw every attack.
    EXPECT_EQ(done.submitted, 2u);
    EXPECT_EQ(journalArrivalLines(h.journalPathFor(0)), 2u);
    EXPECT_EQ(replayFingerprint(h.journalPathFor(0), 2),
              done.fingerprint);
    const QosDaemon::ConnStats &stats = h.daemon().connStats();
    EXPECT_EQ(stats.accepted, 4u);
    EXPECT_EQ(stats.malformed, 2u);
    EXPECT_EQ(stats.midFrameDisconnects, 1u);
}

TEST(Daemon, OverlongHelloNameIsRejectedAtHandshake)
{
    DaemonHarness h(smallEpoch());
    ASSERT_TRUE(h.started());
    {
        RawConn conn(h.socketPath());
        ASSERT_TRUE(conn.ok());
        Hello hello;
        hello.client = std::string(maxHelloClientName + 1, 'x');
        conn.sendAll(encodeMessage(hello, WireMode::Jsonl));
        const std::string wire = conn.readToEof();
        const DecodeResult r = decodeFrame(wire, WireMode::Jsonl);
        ASSERT_EQ(r.status, DecodeResult::Status::Ok) << r.error;
        const auto *e = std::get_if<ErrorMsg>(&r.message);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->code, static_cast<std::uint32_t>(
                               ProtoError::BadHandshake));
    }
    QosClient client(h.clientOptions());
    std::string err;
    ASSERT_TRUE(client.connect(err)) << err;
    DrainDone done;
    ASSERT_TRUE(client.drain(true, done, err)) << err;
    h.join();
    EXPECT_EQ(done.submitted, 0u);
}

} // namespace
} // namespace cmpqos
