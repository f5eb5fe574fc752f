/**
 * @file
 * Transport-backend suite: the in-process queue pair and the
 * Unix-domain-socket link must move payloads reliably and in order,
 * close() must wake a blocked peer, raw socket garbage must poison a
 * UdsLink rather than crash it, and a served ShardController must
 * absorb duplicated sequence numbers (the link-dup fault model) and
 * answer a hostile payload with FedError.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "federation/shard_controller.hh"
#include "federation/transport.hh"

namespace cmpqos
{
namespace
{

void
roundTrip(Link &a, Link &b)
{
    // Payloads must be plausible messages: the UDS backend refuses
    // to ship anything below the [u64 seq][u8 type] minimum. The
    // 1 MiB frame (a quantum-barrier telemetry batch is this order)
    // overflows a socket buffer, so ship it from a thread while the
    // main thread drains -- send() blocks until fully written.
    std::thread sender([&a] {
        EXPECT_TRUE(a.send("hello-payload"));
        EXPECT_TRUE(a.send(std::string(1 << 20, '\x7f')));
    });
    std::string got;
    ASSERT_TRUE(b.recv(got));
    EXPECT_EQ(got, "hello-payload");
    ASSERT_TRUE(b.recv(got));
    EXPECT_EQ(got.size(), std::size_t{1} << 20);
    sender.join();

    ASSERT_TRUE(b.send("reply-payload"));
    ASSERT_TRUE(a.recv(got));
    EXPECT_EQ(got, "reply-payload");
}

TEST(Transport, InprocPairDeliversInOrder)
{
    auto [a, b] = makeInprocLinkPair();
    roundTrip(*a, *b);
}

TEST(Transport, UdsPairDeliversInOrder)
{
    auto [a, b] = makeSocketLinkPair();
    roundTrip(*a, *b);
}

TEST(Transport, CloseWakesBlockedReceiver)
{
    for (int backend = 0; backend < 2; ++backend) {
        auto [a, b] = backend == 0 ? makeInprocLinkPair()
                                   : makeSocketLinkPair();
        std::thread closer([link = a.get()] { link->close(); });
        std::string got;
        EXPECT_FALSE(b->recv(got)) << "backend " << backend;
        EXPECT_TRUE(b->error().empty())
            << "peer close is clean, not poisoned: " << b->error();
        closer.join();
    }
}

TEST(Transport, SendAfterCloseFails)
{
    auto [a, b] = makeInprocLinkPair();
    a->close();
    EXPECT_FALSE(a->send("late-payload"));
}

TEST(Transport, RawGarbagePoisonsUdsLink)
{
    // A peer that writes junk (here: a length prefix claiming 8
    // bytes, below the 9-byte payload minimum) poisons the stream --
    // recv fails with a diagnostic instead of blocking or crashing.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    UdsLink link(fds[0]);
    const char junk[] = "\x08\x00\x00\x00garbage";
    ASSERT_EQ(::write(fds[1], junk, sizeof(junk) - 1),
              static_cast<ssize_t>(sizeof(junk) - 1));
    std::string got;
    EXPECT_FALSE(link.recv(got));
    EXPECT_FALSE(link.error().empty());
    ::close(fds[1]);
}

/** Drive a served controller over one endpoint of a link pair. */
class ServedController : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto [coord, shard] = makeInprocLinkPair();
        coord_ = std::move(coord);
        shard_ = std::move(shard);
        server_ = std::thread([this] {
            ShardController controller;
            clean_ = controller.serve(*shard_, serveError_);
        });
    }

    void
    TearDown() override
    {
        coord_->close();
        if (server_.joinable())
            server_.join();
    }

    void
    send(std::uint64_t seq, const FedMessage &m)
    {
        ASSERT_TRUE(coord_->send(encodeFedPayload(seq, m)));
    }

    FedMessage
    expectReply()
    {
        std::string payload;
        EXPECT_TRUE(coord_->recv(payload)) << coord_->error();
        std::uint64_t seq = 0;
        FedMessage out;
        std::string error;
        EXPECT_TRUE(decodeFedPayload(payload, seq, out, error))
            << error;
        return out;
    }

    /** Send @p m; the reply must be a FedError containing @p why. */
    void
    expectRefused(std::uint64_t seq, const FedMessage &m,
                  const std::string &why)
    {
        send(seq, m);
        const FedMessage reply = expectReply();
        const auto *err = std::get_if<FedError>(&reply);
        ASSERT_NE(err, nullptr) << fedMessageName(reply);
        EXPECT_NE(err->message.find(why), std::string::npos)
            << err->message;
    }

    static FedSubmit
    submitTo(std::int32_t node)
    {
        FedSubmit m;
        m.node = node;
        m.request.benchmark = "bzip2";
        m.request.instructions = 400'000;
        return m;
    }

    static FedInit
    init()
    {
        FedInit m;
        m.shardIndex = 0;
        m.shardCount = 1;
        m.nodeBegin = 0;
        m.nodeCount = 2;
        m.totalNodes = 2;
        m.quantum = 500'000;
        m.threads = 1;
        m.nodeSeeds = {0x1234, 0x5678};
        return m;
    }

    std::unique_ptr<Link> coord_;
    std::unique_ptr<Link> shard_;
    std::thread server_;
    std::string serveError_;
    bool clean_ = false;
};

TEST_F(ServedController, DuplicateSeqIsAbsorbedSilently)
{
    const std::string frame = encodeFedPayload(1, FedMessage{init()});
    ASSERT_TRUE(coord_->send(frame));
    EXPECT_TRUE(
        std::holds_alternative<FedReady>(expectReply()));

    // Replay the identical frame (a duplicated delivery): the
    // controller must NOT re-execute or reply. The link is ordered,
    // so the probe answer arriving next proves the dup was skipped.
    ASSERT_TRUE(coord_->send(frame));
    FedProbe probe;
    probe.request.benchmark = "bzip2";
    probe.request.instructions = 400'000;
    send(2, probe);
    const FedMessage reply = expectReply();
    const auto *probes = std::get_if<FedProbeReply>(&reply);
    ASSERT_NE(probes, nullptr);
    EXPECT_EQ(probes->probes.size(), 2u);

    send(3, FedShutdown{});
}

TEST_F(ServedController, VersionSkewedInitIsRejected)
{
    FedInit skewed = init();
    skewed.protocolVersion = fedProtocolVersion + 1;
    send(1, skewed);
    const FedMessage reply = expectReply();
    const auto *err = std::get_if<FedError>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_NE(err->message.find("protocol version mismatch"),
              std::string::npos)
        << err->message;

    // A rejected init poisons nothing: the correctly-versioned
    // handshake on the same link still brings the shard up.
    send(2, init());
    EXPECT_TRUE(std::holds_alternative<FedReady>(expectReply()));

    send(3, FedShutdown{});
}

// FedInit's ring and pool sizes come off the wire: a size above the
// bound is refused with a FedError naming the field, before any ring
// is allocated or any worker thread started.
TEST_F(ServedController, OversizedRingCapacityIsRejected)
{
    FedInit huge = init();
    huge.telemetry = 1;
    huge.ringCapacity = (std::uint64_t{1} << 63) + 1;
    send(1, huge);
    const FedMessage reply = expectReply();
    const auto *err = std::get_if<FedError>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_NE(err->message.find("ring_capacity"), std::string::npos)
        << err->message;
    send(2, FedShutdown{});
}

TEST_F(ServedController, ThreadCountAboveTheMaximumIsRejected)
{
    FedInit many = init();
    many.telemetry = 1;
    many.threads = ThreadPool::maxThreads + 1;
    send(1, many);
    const FedMessage reply = expectReply();
    const auto *err = std::get_if<FedError>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_NE(err->message.find("threads"), std::string::npos)
        << err->message;
    send(2, FedShutdown{});
}

// A node command the shard's slice cannot run is answered with a
// FedError naming the node, and the shard goes on serving.
TEST_F(ServedController, NodeOutsideTheSliceIsRefused)
{
    send(1, init());
    ASSERT_TRUE(std::holds_alternative<FedReady>(expectReply()));
    expectRefused(2, submitTo(7), "submit: node 7 is not in this "
                                  "shard's slice");
    expectRefused(3, FedCrash{2}, "crash: node 2 is not in");
    expectRefused(4, FedRestart{-1, 500'000}, "restart: node -1 is not in");
    expectRefused(5, FedRelocFail{5}, "reloc-fail: node 5 is not in");

    // The slice's own nodes still take commands.
    send(6, FedCrash{1});
    EXPECT_TRUE(std::holds_alternative<FedCrashReport>(expectReply()));
    send(7, FedShutdown{});
}

TEST_F(ServedController, JobNoNodeCanRunIsRefused)
{
    send(1, init());
    ASSERT_TRUE(std::holds_alternative<FedReady>(expectReply()));
    FedSubmit past = submitTo(1);
    past.request.benchmark = "libquantum";
    past.request.instructions = 12'000'000'000ULL;
    expectRefused(2, past,
                  "submit: instruction count 12000000000 would take a "
                  "libquantum job past its address window");
    FedSubmit unknown = submitTo(1);
    unknown.request.benchmark = "nosuch";
    expectRefused(3, unknown, "submit: unknown benchmark 'nosuch'");

    // The node still takes a job it can run.
    send(4, submitTo(1));
    const FedMessage reply = expectReply();
    const auto *ack = std::get_if<FedSubmitAck>(&reply);
    ASSERT_NE(ack, nullptr) << fedMessageName(reply);
    EXPECT_TRUE(ack->ok);
    send(5, FedShutdown{});
}

TEST_F(ServedController, CrashOfACrashedNodeIsRefused)
{
    send(1, init());
    ASSERT_TRUE(std::holds_alternative<FedReady>(expectReply()));
    send(2, FedCrash{1});
    ASSERT_TRUE(std::holds_alternative<FedCrashReport>(expectReply()));
    expectRefused(3, FedCrash{1}, "crash: node 1 is dead");
    expectRefused(4, submitTo(1), "submit: node 1 is dead");
    expectRefused(5, FedRestart{0, 500'000}, "restart: node 0 is alive");

    // The refusals changed nothing: node 1 restarts as usual.
    send(6, FedRestart{1, 500'000});
    EXPECT_TRUE(std::holds_alternative<FedRestartAck>(expectReply()));
    send(7, FedShutdown{});
}

TEST_F(ServedController, GarbagePayloadAnswersFedError)
{
    ASSERT_TRUE(coord_->send("\x01\x02\x03garbage that is long "
                             "enough to carry a seq and type"));
    const FedMessage reply = expectReply();
    const auto *err = std::get_if<FedError>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_FALSE(err->message.empty());

    // The stream is poisoned: serve() exits reporting the failure.
    server_.join();
    EXPECT_FALSE(clean_);
    EXPECT_FALSE(serveError_.empty());
}

} // namespace
} // namespace cmpqos
