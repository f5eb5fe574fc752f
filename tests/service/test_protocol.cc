/**
 * @file
 * Codec tests for the qosd wire protocol: round-trips in both
 * framings, incremental-decode behaviour, and the malformed-input
 * contract (decodeFrame never throws, never reads out of bounds, and
 * answers every bad frame with a clean Error status).
 */

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "common/random.hh"
#include "service/protocol.hh"

namespace cmpqos
{
namespace
{

/** One of each message type, fields set to non-default values so a
 *  field dropped by the codec shows up as a mismatch. */
std::vector<Message>
sampleMessages()
{
    std::vector<Message> out;
    Hello hello;
    hello.client = "unit-test \"client\" \\ with escapes\n\tand tabs";
    out.push_back(hello);
    HelloAck hello_ack;
    hello_ack.epoch = 3;
    hello_ack.nodes = 8;
    hello_ack.quantum = 2'000'000;
    hello_ack.seed = 42;
    hello_ack.server = "qosd (test build)";
    out.push_back(hello_ack);
    Submit submit;
    submit.ticket = 77;
    submit.tier = 2;
    submit.instructions = 123'456'789;
    submit.time = 1'000'000;
    submit.benchmark = "bzip2";
    out.push_back(submit);
    SubmitReply reply;
    reply.ticket = 77;
    reply.seq = 1'000'000'000'001ULL;
    reply.outcome = 2;
    reply.node = -1;
    reply.time = 5;
    reply.slotStart = 9'999'999;
    reply.deadlineFactor = 1.0500000000000001;
    reply.error = "nope";
    out.push_back(reply);
    Subscribe subscribe;
    subscribe.enable = 0;
    out.push_back(subscribe);
    SubscribeAck sub_ack;
    sub_ack.enabled = 1;
    out.push_back(sub_ack);
    out.push_back(Status{});
    StatusReply status;
    status.epoch = 2;
    status.state = 1;
    status.submitted = 100;
    status.accepted = 90;
    status.rejected = 10;
    status.negotiated = 7;
    status.completed = 80;
    status.virtualTime = 123'456'789'012ULL;
    status.sessions = 3;
    out.push_back(status);
    Drain drain;
    drain.shutdown = 1;
    out.push_back(drain);
    DrainDone done;
    done.epoch = 2;
    done.submitted = 100;
    done.accepted = 90;
    done.completed = 80;
    done.fingerprint = "seed=1 submitted=100";
    out.push_back(done);
    Reconfig reconfig;
    reconfig.directives = "nodes=4 quantum=1000000";
    out.push_back(reconfig);
    ReconfigAck rack;
    rack.epoch = 3;
    rack.error = "quantum=0: want a positive cycle count";
    out.push_back(rack);
    EventMsg event;
    event.epoch = 1;
    event.line = R"({"ev":"job_submitted","t":0})";
    out.push_back(event);
    ErrorMsg error;
    error.code = 3;
    error.message = "unknown benchmark 'frobnicate'";
    out.push_back(error);
    return out;
}

/** Field-level equality via re-encoding: two messages are equal iff
 *  their canonical encodings are. */
void
expectSame(const Message &a, const Message &b)
{
    ASSERT_EQ(a.index(), b.index());
    EXPECT_EQ(encodeMessage(a, WireMode::Binary),
              encodeMessage(b, WireMode::Binary));
    EXPECT_EQ(encodeMessage(a, WireMode::Jsonl),
              encodeMessage(b, WireMode::Jsonl));
}

TEST(Protocol, RoundTripsEveryTypeInBothModes)
{
    for (const Message &m : sampleMessages()) {
        for (const WireMode mode :
             {WireMode::Binary, WireMode::Jsonl}) {
            const std::string frame = encodeMessage(m, mode);
            const DecodeResult r = decodeFrame(frame, mode);
            ASSERT_EQ(r.status, DecodeResult::Status::Ok)
                << messageOpName(m) << ": " << r.error;
            EXPECT_EQ(r.consumed, frame.size());
            expectSame(m, r.message);
        }
    }
}

TEST(Protocol, EveryStrictPrefixNeedsMore)
{
    for (const Message &m : sampleMessages()) {
        for (const WireMode mode :
             {WireMode::Binary, WireMode::Jsonl}) {
            const std::string frame = encodeMessage(m, mode);
            for (std::size_t n = 0; n < frame.size(); ++n) {
                const DecodeResult r = decodeFrame(
                    std::string_view(frame).substr(0, n), mode);
                EXPECT_EQ(r.status, DecodeResult::Status::NeedMore)
                    << messageOpName(m) << " prefix " << n << ": "
                    << r.error;
                EXPECT_EQ(r.consumed, 0u);
            }
        }
    }
}

TEST(Protocol, BackToBackFramesDecodeInOrder)
{
    const std::vector<Message> msgs = sampleMessages();
    for (const WireMode mode : {WireMode::Binary, WireMode::Jsonl}) {
        std::string buffer;
        for (const Message &m : msgs)
            buffer += encodeMessage(m, mode);
        std::size_t at = 0;
        for (const Message &m : msgs) {
            const DecodeResult r = decodeFrame(
                std::string_view(buffer).substr(at), mode);
            ASSERT_EQ(r.status, DecodeResult::Status::Ok) << r.error;
            expectSame(m, r.message);
            at += r.consumed;
        }
        EXPECT_EQ(at, buffer.size());
    }
}

TEST(Protocol, OversizedBinaryFrameIsAnError)
{
    // A length prefix claiming more than max_frame must error
    // immediately, not wait for the bytes to arrive.
    std::string prefix;
    const std::uint32_t claimed = 1 << 20;
    for (int i = 0; i < 4; ++i)
        prefix.push_back(static_cast<char>((claimed >> (8 * i)) & 0xff));
    const DecodeResult r =
        decodeFrame(prefix, WireMode::Binary, defaultMaxFrame);
    EXPECT_EQ(r.status, DecodeResult::Status::Error);
}

TEST(Protocol, OverlongJsonlLineIsAnError)
{
    const std::string line(defaultMaxFrame + 1, 'x');
    const DecodeResult r = decodeFrame(line, WireMode::Jsonl);
    EXPECT_EQ(r.status, DecodeResult::Status::Error);
}

TEST(Protocol, UnknownBinaryTypeIsAnError)
{
    std::string frame;
    frame += '\x01';
    frame += '\x00';
    frame += '\x00';
    frame += '\x00';
    frame += '\x63'; // type 99: no such message
    const DecodeResult r = decodeFrame(frame, WireMode::Binary);
    EXPECT_EQ(r.status, DecodeResult::Status::Error);
}

TEST(Protocol, UnknownJsonlOpIsAnError)
{
    const DecodeResult r =
        decodeFrame("{\"op\":\"frobnicate\"}\n", WireMode::Jsonl);
    EXPECT_EQ(r.status, DecodeResult::Status::Error);
}

TEST(Protocol, UnknownJsonlFieldIsIgnoredForwardCompat)
{
    const DecodeResult r = decodeFrame(
        "{\"op\":\"drain\",\"shutdown\":1,\"later-extension\":5}\n",
        WireMode::Jsonl);
    ASSERT_EQ(r.status, DecodeResult::Status::Ok) << r.error;
    const auto *d = std::get_if<Drain>(&r.message);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->shutdown, 1);
}

TEST(Protocol, NestedJsonIsRejected)
{
    const DecodeResult r = decodeFrame(
        "{\"op\":\"drain\",\"extra\":{\"nested\":1}}\n",
        WireMode::Jsonl);
    EXPECT_EQ(r.status, DecodeResult::Status::Error);
}

TEST(Protocol, OutOfRangeJsonlNumbersAreErrors)
{
    // An integer field takes an integer token within its type: no
    // exponent, no fraction, no saturation, no wrap-around.
    for (const char *line : {
             "{\"op\":\"submit-reply\",\"node\":1e300}\n",
             "{\"op\":\"submit-reply\",\"node\":2147483648}\n",
             "{\"op\":\"submit-reply\",\"node\":-2147483649}\n",
             "{\"op\":\"submit\",\"time\":18446744073709551616}\n",
             "{\"op\":\"submit\",\"time\":-1}\n",
             "{\"op\":\"submit\",\"time\":1.5}\n",
             "{\"op\":\"submit\",\"tier\":256}\n",
             "{\"op\":\"submit\",\"ticket\":4294967296}\n",
             "{\"op\":\"submit-reply\",\"deadline_factor\":1e400}\n",
             "{\"op\":\"submit\",\"time\":01}\n",
         }) {
        const DecodeResult r = decodeFrame(line, WireMode::Jsonl);
        EXPECT_EQ(r.status, DecodeResult::Status::Error) << line;
    }
    const DecodeResult edge = decodeFrame(
        "{\"op\":\"submit-reply\",\"node\":-2147483648,"
        "\"time\":18446744073709551615,\"deadline_factor\":2}\n",
        WireMode::Jsonl);
    ASSERT_EQ(edge.status, DecodeResult::Status::Ok) << edge.error;
    const auto *reply = std::get_if<SubmitReply>(&edge.message);
    ASSERT_NE(reply, nullptr);
    EXPECT_EQ(reply->node, -2147483648LL);
    EXPECT_EQ(reply->time, 18446744073709551615ULL);
    EXPECT_EQ(reply->deadlineFactor, 2.0);
}

TEST(Protocol, TruncationFuzzNeverCrashes)
{
    // Every prefix of every frame, decoded as BOTH modes: anything
    // may come off a hostile socket. No assertion on the verdict
    // (prefixes of binary frames may be valid JSONL junk and vice
    // versa) -- the contract under test is "never throws, never
    // reads out of bounds", which ASan/UBSan turn into a hard check.
    for (const Message &m : sampleMessages()) {
        for (const WireMode encode_mode :
             {WireMode::Binary, WireMode::Jsonl}) {
            const std::string frame = encodeMessage(m, encode_mode);
            for (std::size_t n = 0; n <= frame.size(); ++n) {
                const std::string_view prefix =
                    std::string_view(frame).substr(0, n);
                (void)decodeFrame(prefix, WireMode::Binary);
                (void)decodeFrame(prefix, WireMode::Jsonl);
            }
        }
    }
}

TEST(Protocol, MutationFuzzNeverCrashes)
{
    // Deterministic byte-mutation fuzz: flip random bytes of honest
    // frames and decode the result in both modes. Any status is
    // acceptable; crashing or over-reading is not.
    Rng rng(0xf00dULL);
    const std::vector<Message> msgs = sampleMessages();
    for (int round = 0; round < 2000; ++round) {
        const Message &m = msgs[rng.uniformInt(msgs.size())];
        const WireMode mode = rng.uniformInt(2) == 0
                                  ? WireMode::Binary
                                  : WireMode::Jsonl;
        std::string frame = encodeMessage(m, mode);
        const std::size_t flips = 1 + rng.uniformInt(4);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t at = rng.uniformInt(frame.size());
            frame[at] = static_cast<char>(rng.next() & 0xff);
        }
        (void)decodeFrame(frame, WireMode::Binary);
        (void)decodeFrame(frame, WireMode::Jsonl);
    }
}

TEST(Protocol, GarbageFuzzNeverCrashes)
{
    Rng rng(0xbeefULL);
    for (int round = 0; round < 500; ++round) {
        std::string junk(rng.uniformInt(300), '\0');
        for (char &c : junk)
            c = static_cast<char>(rng.next() & 0xff);
        (void)decodeFrame(junk, WireMode::Binary);
        (void)decodeFrame(junk, WireMode::Jsonl);
    }
}

TEST(Protocol, WireModeDetection)
{
    EXPECT_EQ(detectWireMode('{'), WireMode::Jsonl);
    // Every other byte is a plausible binary length prefix -- a
    // 13-byte binary Hello starts with '\r'.
    EXPECT_EQ(detectWireMode('\r'), WireMode::Binary);
    EXPECT_EQ(detectWireMode('\n'), WireMode::Binary);
    EXPECT_EQ(detectWireMode(' '), WireMode::Binary);
    EXPECT_EQ(detectWireMode('\x0d'), WireMode::Binary);
    EXPECT_EQ(detectWireMode('\x08'), WireMode::Binary);
}

TEST(Protocol, HelloClientNameKeepsBinaryFirstByteUnambiguous)
{
    // The first byte of a binary session is the low length byte of
    // its Hello frame; maxHelloClientName must keep that byte below
    // '{' so mode detection cannot misfire.
    Hello h;
    h.client = std::string(maxHelloClientName, 'n');
    const std::string frame = encodeMessage(h, WireMode::Binary);
    EXPECT_LT(static_cast<unsigned char>(frame[0]),
              static_cast<unsigned char>('{'));
}

TEST(Protocol, ParseQosTier)
{
    QosTier t = QosTier::Gold;
    EXPECT_TRUE(parseQosTier("silver", t));
    EXPECT_EQ(t, QosTier::Silver);
    EXPECT_TRUE(parseQosTier("gold", t));
    EXPECT_EQ(t, QosTier::Gold);
    EXPECT_TRUE(parseQosTier("bronze", t));
    EXPECT_EQ(t, QosTier::Bronze);
    EXPECT_FALSE(parseQosTier("platinum", t));
    EXPECT_FALSE(parseQosTier("", t));
}

} // namespace
} // namespace cmpqos
