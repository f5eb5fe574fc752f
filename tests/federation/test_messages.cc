/**
 * @file
 * Codec suite for the federation shard protocol: every message type
 * round-trips through encodeFedPayload/decodeFedPayload, framing via
 * extractFedFrame honours the length prefix and its bounds, and the
 * decoder survives truncation, byte-mutation and pure-garbage fuzz
 * (same harness shape as the service protocol's, see
 * tests/service/test_protocol.cc) — ASan/UBSan turn "never over-read"
 * into a hard check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.hh"
#include "federation/message.hh"

namespace cmpqos
{
namespace
{

WireJobRequest
sampleRequest()
{
    WireJobRequest r;
    r.benchmark = "mcf";
    r.mode = 1;
    r.slack = 0.05;
    r.deadlineFactor = 2.5;
    r.cores = 2;
    r.ways = 6;
    r.bandwidthPercent = 40;
    r.instructions = 1'500'000;
    return r;
}

/** One populated sample per FedMessage alternative, variant order. */
std::vector<FedMessage>
sampleMessages()
{
    std::vector<FedMessage> msgs;

    FedInit init;
    init.shardIndex = 1;
    init.shardCount = 4;
    init.nodeBegin = 2;
    init.nodeCount = 2;
    init.totalNodes = 8;
    init.quantum = 2'000'000;
    init.threads = 4;
    init.telemetry = 1;
    init.ringCapacity = 1024;
    init.checkInvariants = 1;
    init.nodeSeeds = {0x1111, 0x2222};
    msgs.emplace_back(init);

    msgs.emplace_back(FedProbe{sampleRequest()});
    msgs.emplace_back(FedSubmit{3, sampleRequest()});
    msgs.emplace_back(FedCrash{2});
    msgs.emplace_back(FedRestart{2, 4'000'000});

    FedAdvance adv;
    adv.from = 2'000'000;
    adv.to = 4'000'000;
    adv.stalls = {0, 250'000};
    adv.check = 1;
    msgs.emplace_back(adv);

    msgs.emplace_back(FedDrainReq{});
    msgs.emplace_back(FedSnapshotReq{});
    msgs.emplace_back(FedInvariantReq{});
    msgs.emplace_back(FedShutdown{});
    msgs.emplace_back(FedReady{1});

    FedProbeReply reply;
    WireProbe p;
    p.node = 2;
    p.alive = 1;
    p.accepted = 1;
    p.slotStart = 3'000'000;
    p.load = 2;
    p.ways = 5;
    reply.probes = {p, WireProbe{}};
    msgs.emplace_back(reply);

    msgs.emplace_back(FedSubmitAck{3, 17, 1});

    FedCrashReport crash;
    crash.node = 2;
    crash.failedRunning = {4, 9};
    crash.waiting = {WireLostJob{12, 1, sampleRequest()}};
    msgs.emplace_back(crash);

    msgs.emplace_back(FedRestartAck{2});

    FedQuantumDone qd;
    qd.to = 4'000'000;
    qd.checksRun = 8;
    qd.violations = 0;
    qd.events = std::string(88, '\x5a');
    qd.drops = 3;
    msgs.emplace_back(qd);

    FedDrainDone dd;
    dd.checksRun = 12;
    dd.events = std::string(176, '\x42');
    msgs.emplace_back(dd);

    FedSnapshotReply snap;
    NodeMetrics nm;
    nm.node = 2;
    nm.virtualTime = 9'000'000;
    nm.placed = 6;
    nm.completed = 5;
    nm.inFlight = 1;
    nm.instructions = 10'000'000;
    nm.utilisation = 0.75;
    nm.stolenWays = 2;
    nm.failed = 1;
    nm.restarts = 1;
    nm.alive = true;
    nm.byMode[0] = {5, 5};
    nm.energy = 1.5e6;
    nm.control.retunes = 3;
    nm.control.wayGrants = 3;
    snap.nodes = {nm};
    msgs.emplace_back(snap);

    msgs.emplace_back(FedInvariantReport{8, 0, "all green"});
    msgs.emplace_back(FedError{"something broke"});
    msgs.emplace_back(FedRelocFail{2});
    msgs.emplace_back(FedRelocFailAck{2});

    // Keep the sample list exhaustive as the protocol grows.
    EXPECT_EQ(msgs.size(), std::variant_size_v<FedMessage>);
    for (std::size_t i = 0; i < msgs.size(); ++i)
        EXPECT_EQ(msgs[i].index(), i);
    return msgs;
}

/** Field-level equality via re-encoding under the same seq. */
void
expectSame(const FedMessage &a, const FedMessage &b)
{
    ASSERT_EQ(a.index(), b.index());
    EXPECT_EQ(encodeFedPayload(7, a), encodeFedPayload(7, b));
}

TEST(FedMessages, RoundTripsEveryType)
{
    for (const FedMessage &m : sampleMessages()) {
        const std::string payload = encodeFedPayload(42, m);
        std::uint64_t seq = 0;
        FedMessage out;
        std::string error;
        ASSERT_TRUE(decodeFedPayload(payload, seq, out, error))
            << fedMessageName(m) << ": " << error;
        EXPECT_EQ(seq, 42u);
        expectSame(m, out);
    }
}

TEST(FedMessages, EveryStrictPrefixIsRejected)
{
    // The trailing-bytes check makes a payload exactly one message:
    // no strict prefix may decode (a field read runs out of bytes or
    // the exact-length check fails), and none may crash.
    for (const FedMessage &m : sampleMessages()) {
        const std::string payload = encodeFedPayload(1, m);
        for (std::size_t n = 0; n < payload.size(); ++n) {
            std::uint64_t seq = 0;
            FedMessage out;
            std::string error;
            EXPECT_FALSE(decodeFedPayload(
                std::string_view(payload).substr(0, n), seq, out,
                error))
                << fedMessageName(m) << " prefix " << n;
        }
    }
}

TEST(FedMessages, TrailingBytesAreRejected)
{
    for (const FedMessage &m : sampleMessages()) {
        std::string payload = encodeFedPayload(1, m);
        payload.push_back('\x00');
        std::uint64_t seq = 0;
        FedMessage out;
        std::string error;
        EXPECT_FALSE(decodeFedPayload(payload, seq, out, error))
            << fedMessageName(m);
    }
}

TEST(FedMessages, UnknownTypeIsRejected)
{
    std::string payload(9, '\0');
    payload[8] =
        static_cast<char>(std::variant_size_v<FedMessage>); // next id
    std::uint64_t seq = 0;
    FedMessage out;
    std::string error;
    EXPECT_FALSE(decodeFedPayload(payload, seq, out, error));
    EXPECT_NE(error.find("unknown message type"), std::string::npos);
}

TEST(FedMessages, BoolByteOtherThanZeroOrOneIsRejected)
{
    // A node snapshot's `alive` travels as one byte; find it as the
    // only byte that differs between a live and a dead node.
    FedSnapshotReply live;
    live.nodes.emplace_back();
    FedSnapshotReply dead = live;
    dead.nodes[0].alive = false;
    std::string payload = encodeFedPayload(1, live);
    const std::string other = encodeFedPayload(1, dead);
    ASSERT_EQ(payload.size(), other.size());
    const auto at = static_cast<std::size_t>(
        std::mismatch(payload.begin(), payload.end(), other.begin())
            .first -
        payload.begin());
    ASSERT_LT(at, payload.size());
    payload[at] = '\x02';
    std::uint64_t seq = 0;
    FedMessage out;
    std::string error;
    EXPECT_FALSE(decodeFedPayload(payload, seq, out, error));
    EXPECT_NE(error.find("bool field 'alive'"), std::string::npos)
        << error;
}

TEST(FedFraming, ExtractsBackToBackFrames)
{
    const std::vector<FedMessage> msgs = sampleMessages();
    std::string buffer;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
        const std::string payload = encodeFedPayload(i + 1, msgs[i]);
        const std::uint32_t len =
            static_cast<std::uint32_t>(payload.size());
        for (int b = 0; b < 4; ++b)
            buffer.push_back(
                static_cast<char>((len >> (8 * b)) & 0xff));
        buffer += payload;
    }
    for (const FedMessage &m : msgs) {
        std::string payload, error;
        ASSERT_EQ(extractFedFrame(buffer, payload, error),
                  FedFrameStatus::Ok)
            << error;
        std::uint64_t seq = 0;
        FedMessage out;
        ASSERT_TRUE(decodeFedPayload(payload, seq, out, error))
            << error;
        expectSame(m, out);
    }
    EXPECT_TRUE(buffer.empty());
}

TEST(FedFraming, PartialFrameNeedsMore)
{
    const std::string payload =
        encodeFedPayload(1, FedMessage{FedReady{0}});
    std::string frame;
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    for (int b = 0; b < 4; ++b)
        frame.push_back(static_cast<char>((len >> (8 * b)) & 0xff));
    frame += payload;
    for (std::size_t n = 0; n < frame.size(); ++n) {
        std::string buffer = frame.substr(0, n);
        std::string out, error;
        EXPECT_EQ(extractFedFrame(buffer, out, error),
                  FedFrameStatus::NeedMore)
            << "prefix " << n;
        EXPECT_EQ(buffer.size(), n) << "NeedMore must not consume";
    }
}

TEST(FedFraming, UndersizedLengthPoisons)
{
    // A frame shorter than [u64 seq][u8 type] can never be a message.
    std::string buffer("\x08\x00\x00\x00", 4);
    std::string payload, error;
    EXPECT_EQ(extractFedFrame(buffer, payload, error),
              FedFrameStatus::Error);
    EXPECT_NE(error.find("undersized"), std::string::npos);
}

TEST(FedFraming, OversizedLengthPoisonsImmediately)
{
    // The length prefix alone must trip the ceiling — no waiting for
    // bytes that will never come.
    std::string buffer("\xff\xff\xff\x7f", 4);
    std::string payload, error;
    EXPECT_EQ(extractFedFrame(buffer, payload, error,
                              /*max_frame=*/1 << 20),
              FedFrameStatus::Error);
    EXPECT_NE(error.find("oversized"), std::string::npos);
}

TEST(FedMessages, MutationFuzzNeverCrashes)
{
    // Deterministic byte-flip fuzz over honest payloads: any verdict
    // is acceptable, crashing or over-reading is not.
    Rng rng(0xfedfedULL);
    const std::vector<FedMessage> msgs = sampleMessages();
    for (int round = 0; round < 2000; ++round) {
        const FedMessage &m = msgs[rng.uniformInt(msgs.size())];
        std::string payload = encodeFedPayload(rng.next(), m);
        const std::size_t flips = 1 + rng.uniformInt(4);
        for (std::size_t f = 0; f < flips; ++f)
            payload[rng.uniformInt(payload.size())] =
                static_cast<char>(rng.next() & 0xff);
        std::uint64_t seq = 0;
        FedMessage out;
        std::string error;
        (void)decodeFedPayload(payload, seq, out, error);
    }
}

TEST(FedMessages, GarbageFuzzNeverCrashes)
{
    Rng rng(0xdeadULL);
    for (int round = 0; round < 500; ++round) {
        std::string junk(rng.uniformInt(300), '\0');
        for (char &c : junk)
            c = static_cast<char>(rng.next() & 0xff);
        std::uint64_t seq = 0;
        FedMessage out;
        std::string error;
        (void)decodeFedPayload(junk, seq, out, error);

        std::string buffer = junk, payload;
        (void)extractFedFrame(buffer, payload, error);
    }
}

} // namespace
} // namespace cmpqos
