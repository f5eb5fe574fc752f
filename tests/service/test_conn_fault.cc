/**
 * @file
 * Tests for the transport-level fault machinery: corruptFrame is pure
 * and deterministic, and the plan text form round-trips with errors
 * that name their line. The containment contract against a live
 * daemon is exercised in test_daemon.cc.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "fault/connection.hh"
#include "service/protocol.hh"

namespace cmpqos
{
namespace
{

std::string
honestFrame()
{
    Submit s;
    s.ticket = 1;
    s.benchmark = "bzip2";
    return encodeMessage(s, WireMode::Binary);
}

TEST(ConnFault, TruncateKeepsPrefix)
{
    const std::string frame = honestFrame();
    ConnFaultSpec f;
    f.type = ConnFaultType::TruncateFrame;
    f.param = 3;
    const std::string wire = corruptFrame(frame, f);
    EXPECT_EQ(wire, frame.substr(0, 3));
    // Keeping more than the frame is a no-op, not an error.
    f.param = frame.size() + 10;
    EXPECT_EQ(corruptFrame(frame, f), frame);
}

TEST(ConnFault, OversizeClaimsLengthWithNoPayload)
{
    ConnFaultSpec f;
    f.type = ConnFaultType::OversizeFrame;
    f.param = 1 << 20;
    const std::string wire = corruptFrame(honestFrame(), f);
    ASSERT_EQ(wire.size(), 4u);
    std::uint32_t claimed = 0;
    for (int i = 3; i >= 0; --i)
        claimed = (claimed << 8) |
                  static_cast<unsigned char>(wire[static_cast<size_t>(i)]);
    EXPECT_EQ(claimed, 1u << 20);
    // And the codec must refuse it without waiting for payload.
    const DecodeResult r = decodeFrame(wire, WireMode::Binary);
    EXPECT_EQ(r.status, DecodeResult::Status::Error);
}

TEST(ConnFault, GarbageIsSeedDeterministic)
{
    ConnFaultSpec f;
    f.type = ConnFaultType::GarbageBytes;
    f.param = 64;
    f.seed = 123;
    const std::string a = corruptFrame(honestFrame(), f);
    const std::string b = corruptFrame("unrelated", f);
    EXPECT_EQ(a.size(), 64u);
    EXPECT_EQ(a, b) << "garbage ignores the input frame";
    f.seed = 124;
    EXPECT_NE(corruptFrame(honestFrame(), f), a);
}

TEST(ConnFault, CorruptFlipsOneBit)
{
    const std::string frame = honestFrame();
    ConnFaultSpec f;
    f.type = ConnFaultType::CorruptByte;
    f.param = 5;
    const std::string wire = corruptFrame(frame, f);
    ASSERT_EQ(wire.size(), frame.size());
    for (std::size_t i = 0; i < frame.size(); ++i) {
        if (i == 5)
            EXPECT_EQ(wire[i], static_cast<char>(frame[i] ^ 0x01));
        else
            EXPECT_EQ(wire[i], frame[i]);
    }
    f.param = frame.size() + 1;
    EXPECT_EQ(corruptFrame(frame, f), frame) << "out of range = no-op";
}

TEST(ConnFault, PlanTextRoundTrips)
{
    ConnFaultPlan plan;
    plan.faults.push_back({ConnFaultType::TruncateFrame, 7, 1});
    plan.faults.push_back({ConnFaultType::OversizeFrame, 1 << 20, 1});
    plan.faults.push_back({ConnFaultType::GarbageBytes, 32, 99});
    plan.faults.push_back({ConnFaultType::CorruptByte, 4, 1});
    std::ostringstream os;
    plan.write(os);
    std::istringstream is(os.str());
    ConnFaultPlan back;
    std::string err;
    ASSERT_TRUE(ConnFaultPlan::tryParse(is, back, err)) << err;
    ASSERT_EQ(back.faults.size(), plan.faults.size());
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
        EXPECT_EQ(back.faults[i].type, plan.faults[i].type);
        EXPECT_EQ(back.faults[i].param, plan.faults[i].param);
        EXPECT_EQ(back.faults[i].seed, plan.faults[i].seed);
    }
    EXPECT_EQ(back.summary(), plan.summary());
}

TEST(ConnFault, ParseSkipsCommentsAndNamesBadLines)
{
    std::istringstream ok(
        "# transport faults\n"
        "\n"
        "truncate 3   # mid-frame death\n"
        "garbage 16 7\n");
    ConnFaultPlan plan;
    std::string err;
    ASSERT_TRUE(ConnFaultPlan::tryParse(ok, plan, err)) << err;
    ASSERT_EQ(plan.faults.size(), 2u);
    EXPECT_EQ(plan.faults[0].type, ConnFaultType::TruncateFrame);
    EXPECT_EQ(plan.faults[1].seed, 7u);

    std::istringstream bad(
        "truncate 3\n"
        "explode 9\n");
    ConnFaultPlan out;
    EXPECT_FALSE(ConnFaultPlan::tryParse(bad, out, err));
    EXPECT_NE(err.find("line 2"), std::string::npos)
        << "error should name the line: " << err;

    // A present seed must be a number, nothing follows the last
    // operand, and an unsigned operand takes no sign.
    for (const char *line :
         {"garbage 10 abc", "truncate 7 extra", "corrupt -1"}) {
        std::istringstream in(std::string("truncate 3\n") + line + "\n");
        ConnFaultPlan refused;
        EXPECT_FALSE(ConnFaultPlan::tryParse(in, refused, err)) << line;
        EXPECT_NE(err.find("line 2"), std::string::npos)
            << line << ": " << err;
    }
}

} // namespace
} // namespace cmpqos
