/**
 * @file
 * Tests for the one JSON reader (common/json.hh): flat-object syntax,
 * typed getters with range checks, and escapeJson round trips.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.hh"

namespace cmpqos
{
namespace
{

JsonObject
parsed(std::string_view text)
{
    JsonObject obj;
    EXPECT_TRUE(obj.parse(text)) << text << ": " << obj.error();
    return obj;
}

TEST(Json, ReadsEveryScalarKind)
{
    const JsonObject obj = parsed(
        " {\"s\":\"a\\\"b\\\\c\\/\\n\",\"u\":42,\"i\":-7,\"d\":1.5e3,"
        "\"t\":true,\"f\":false,\"z\":null}\r\n");
    std::string s;
    EXPECT_EQ(obj.get("s", s), JsonField::Ok);
    EXPECT_EQ(s, "a\"b\\c/\n");
    std::uint32_t u = 0;
    EXPECT_EQ(obj.get("u", u), JsonField::Ok);
    EXPECT_EQ(u, 42u);
    int i = 0;
    EXPECT_EQ(obj.get("i", i), JsonField::Ok);
    EXPECT_EQ(i, -7);
    double d = 0.0;
    EXPECT_EQ(obj.get("d", d), JsonField::Ok);
    EXPECT_EQ(d, 1500.0);
    EXPECT_EQ(obj.get("u", d), JsonField::Ok); // integers are numbers
    EXPECT_EQ(d, 42.0);

    // Wrong kinds are Bad and leave the destination alone; missing
    // keys are Absent.
    u = 9;
    EXPECT_EQ(obj.get("s", u), JsonField::Bad);
    EXPECT_EQ(obj.get("t", u), JsonField::Bad);
    EXPECT_EQ(obj.get("z", u), JsonField::Bad);
    EXPECT_EQ(obj.get("d", u), JsonField::Bad); // exponent: not an int
    EXPECT_EQ(u, 9u);
    EXPECT_EQ(obj.get("u", s), JsonField::Bad);
    EXPECT_EQ(obj.get("missing", u), JsonField::Absent);
    EXPECT_EQ(obj.get("f", d), JsonField::Bad);
}

TEST(Json, IntegersMustFitTheirType)
{
    const JsonObject obj = parsed(
        "{\"u64max\":18446744073709551615,\"u64over\":18446744073709551616,"
        "\"i64min\":-9223372036854775808,\"i64under\":-9223372036854775809,"
        "\"neg\":-1,\"negzero\":-0,\"big\":1e300,\"frac\":2.0,"
        "\"i16max\":32767,\"i16over\":32768,\"i16min\":-32768}");
    std::uint64_t u = 0;
    EXPECT_EQ(obj.get("u64max", u), JsonField::Ok);
    EXPECT_EQ(u, 18446744073709551615ULL);
    EXPECT_EQ(obj.get("u64over", u), JsonField::Bad);
    EXPECT_EQ(obj.get("neg", u), JsonField::Bad);
    EXPECT_EQ(obj.get("negzero", u), JsonField::Bad);
    EXPECT_EQ(obj.get("big", u), JsonField::Bad);
    EXPECT_EQ(obj.get("frac", u), JsonField::Bad);

    std::int64_t i = 0;
    EXPECT_EQ(obj.get("i64min", i), JsonField::Ok);
    EXPECT_EQ(i, INT64_MIN);
    EXPECT_EQ(obj.get("i64under", i), JsonField::Bad);
    EXPECT_EQ(obj.get("u64max", i), JsonField::Bad);
    EXPECT_EQ(obj.get("negzero", i), JsonField::Ok);
    EXPECT_EQ(i, 0);

    std::int16_t h = 0;
    EXPECT_EQ(obj.get("i16max", h), JsonField::Ok);
    EXPECT_EQ(h, 32767);
    EXPECT_EQ(obj.get("i16min", h), JsonField::Ok);
    EXPECT_EQ(h, -32768);
    EXPECT_EQ(obj.get("i16over", h), JsonField::Bad);

    std::uint8_t b = 0;
    EXPECT_EQ(obj.get("neg", b), JsonField::Bad);
    EXPECT_EQ(obj.get("i16max", b), JsonField::Bad);
}

TEST(Json, DoublesMustBeFinite)
{
    const JsonObject obj =
        parsed("{\"huge\":1e400,\"tiny\":1e-400,\"x\":0.123456789}");
    double d = 7.0;
    EXPECT_EQ(obj.get("huge", d), JsonField::Bad);
    EXPECT_EQ(d, 7.0);
    EXPECT_EQ(obj.get("tiny", d), JsonField::Ok);
    EXPECT_EQ(d, 0.0);
    EXPECT_EQ(obj.get("x", d), JsonField::Ok);
    EXPECT_EQ(d, 0.123456789);
}

TEST(Json, RepeatedKeyKeepsTheLastValue)
{
    const JsonObject obj = parsed("{\"k\":1,\"k\":2}");
    int k = 0;
    EXPECT_EQ(obj.get("k", k), JsonField::Ok);
    EXPECT_EQ(k, 2);
}

TEST(Json, UnicodeEscapesBecomeUtf8)
{
    const JsonObject obj =
        parsed("{\"s\":\"\\u0041\\u00e9\\u20AC\\u0000\"}");
    std::string s;
    ASSERT_EQ(obj.get("s", s), JsonField::Ok);
    EXPECT_EQ(s, std::string("A\xc3\xa9\xe2\x82\xac\0", 7));
}

TEST(Json, RefusesEverythingButOneFlatObject)
{
    for (const char *bad : {
             "",
             "[]",
             "{",
             "{\"a\":1",
             "{\"a\":1,}",
             "{\"a\" 1}",
             "{a:1}",
             "{\"a\":{\"b\":1}}",
             "{\"a\":[1]}",
             "{\"a\":1} x",
             "{\"a\":1}{}",
             "{\"a\":\"unterminated}",
             "{\"a\":\"raw\ttab\"}",
             "{\"a\":\"\\x\"}",
             "{\"a\":\"\\u12\"}",
             "{\"a\":\"\\u12g4\"}",
             "{\"a\":tru}",
             "{\"a\":nan}",
             "{\"a\":inf}",
             "{\"a\":-}",
             "{\"a\":01}",
             "{\"a\":1.}",
             "{\"a\":.5}",
             "{\"a\":1e}",
             "{\"a\":+1}",
         }) {
        JsonObject obj;
        EXPECT_FALSE(obj.parse(bad)) << bad;
        EXPECT_FALSE(obj.error().empty()) << bad;
    }
    JsonObject empty;
    EXPECT_TRUE(empty.parse("{ }"));
}

TEST(Json, EscapedStringsRoundTripEveryByte)
{
    std::string all;
    for (int c = 0; c < 256; ++c)
        all.push_back(static_cast<char>(c));
    const std::string line = "{\"s\":\"" + escapeJson(all) + "\"}";
    for (const char c : line)
        ASSERT_GE(static_cast<unsigned char>(c), 0x20);
    std::string back;
    ASSERT_EQ(parsed(line).get("s", back), JsonField::Ok);
    EXPECT_EQ(back, all);
}

} // namespace
} // namespace cmpqos
