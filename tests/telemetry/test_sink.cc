/**
 * @file
 * Exporter escaping tests: hostile benchmark / reason strings (quotes,
 * backslashes, control characters) must not corrupt the JSONL or
 * Chrome streams. Includes a deterministic fuzz loop that round-trips
 * random hostile names through formatLine and a JSON string decoder,
 * and the capture reader's round trips: parseLine inverts formatLine
 * and parseMetaLine inverts the meta trailer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "telemetry/sink.hh"

namespace cmpqos
{
namespace
{

/**
 * Decode one JSON string literal starting at `pos` (the opening
 * quote) of `s`; mirrors what any conforming parser does.
 * @return false on malformed input.
 */
bool
decodeJsonString(const std::string &s, std::size_t pos, std::string &out)
{
    if (pos >= s.size() || s[pos] != '"')
        return false;
    ++pos;
    out.clear();
    while (pos < s.size() && s[pos] != '"') {
        char c = s[pos];
        if (static_cast<unsigned char>(c) < 0x20)
            return false; // raw control character: invalid JSON
        if (c == '\\') {
            if (++pos >= s.size())
                return false;
            switch (s[pos]) {
              case '"': c = '"'; break;
              case '\\': c = '\\'; break;
              case '/': c = '/'; break;
              case 'b': c = '\b'; break;
              case 'f': c = '\f'; break;
              case 'n': c = '\n'; break;
              case 'r': c = '\r'; break;
              case 't': c = '\t'; break;
              case 'u':
                if (pos + 4 >= s.size())
                    return false;
                c = static_cast<char>(std::strtoul(
                    s.substr(pos + 1, 4).c_str(), nullptr, 16));
                pos += 4;
                break;
              default: return false;
            }
        }
        out += c;
        ++pos;
    }
    return pos < s.size();
}

/** Extract and decode the value of `"key":"..."` from a JSON line. */
bool
extractString(const std::string &line, const std::string &key,
              std::string &out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    return decodeJsonString(line, at + needle.size(), out);
}

TraceEvent
submitted(const std::string &name)
{
    TraceEvent e = traceEvent(TraceEventType::JobSubmitted, 100, 1);
    e.setName(name);
    return e;
}

TEST(EscapeJson, HandlesEveryEscapeClass)
{
    EXPECT_EQ(escapeJson("plain"), "plain");
    EXPECT_EQ(escapeJson("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeJson("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeJson("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(escapeJson("\b\f"), "\\b\\f");
    EXPECT_EQ(escapeJson(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
    // Multi-byte UTF-8 passes through untouched.
    EXPECT_EQ(escapeJson("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonlTraceSink, HostileNameStaysOnOneValidLine)
{
    const std::string hostile = "evil\"bench\\\nname\ttab";
    const std::string line =
        JsonlTraceSink::formatLine(submitted(hostile));
    // One line, no raw control bytes anywhere.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    for (const char c : line)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    std::string decoded;
    ASSERT_TRUE(extractString(line, "benchmark", decoded));
    EXPECT_EQ(decoded, hostile);
}

TEST(JsonlTraceSink, FuzzRoundTripsHostileNames)
{
    // Deterministic fuzz: names drawn from an alphabet biased toward
    // everything that can break a JSON encoder. Each must round-trip
    // through formatLine and a conforming string decoder.
    const std::string alphabet =
        "\"\\\x01\x02\x08\x09\x0a\x0d\x1f{}[]:,/ abcZ\x7f";
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    auto next = [&]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 500; ++round) {
        std::string name;
        const std::size_t len = next() % 40;
        for (std::size_t i = 0; i < len; ++i)
            name += alphabet[next() % alphabet.size()];
        const std::string line =
            JsonlTraceSink::formatLine(submitted(name));
        ASSERT_EQ(line.front(), '{');
        ASSERT_EQ(line.back(), '}');
        for (const char c : line)
            ASSERT_GE(static_cast<unsigned char>(c), 0x20)
                << "raw control byte in: " << line;
        std::string decoded;
        ASSERT_TRUE(extractString(line, "benchmark", decoded))
            << "unparseable line: " << line;
        ASSERT_EQ(decoded, name);
    }
}

TEST(JsonlTraceSink, ReasonStringsEscapedToo)
{
    TraceEvent e = traceEvent(TraceEventType::JobRejected, 5, 2);
    e.setName("quota \"gold\" exceeded\n");
    const std::string line = JsonlTraceSink::formatLine(e);
    std::string decoded;
    ASSERT_TRUE(extractString(line, "reason", decoded));
    EXPECT_EQ(decoded, "quota \"gold\" exceeded\n");
}

/** An event carrying every field formatLine writes for @p type;
 *  the fields it does not write keep their defaults. */
TraceEvent
fullEvent(TraceEventType type, std::int16_t node, const std::string &name,
          double x)
{
    TraceEvent e = traceEvent(type, 18446744073709551615ULL, -1);
    e.node = node;
    const TracePayloadKeys &k = payloadKeys(type);
    if (k.a != nullptr)
        e.a = 18446744073709551615ULL;
    if (k.b != nullptr)
        e.b = 42;
    if (k.x != nullptr)
        e.x = x;
    if (k.name != nullptr)
        e.setName(name);
    return e;
}

/** parseLine(formatLine(e)) == e, and formatting it again is exact. */
void
expectRoundTrip(const TraceEvent &e)
{
    const std::string line = JsonlTraceSink::formatLine(e);
    TraceEvent back;
    ASSERT_TRUE(JsonlTraceSink::parseLine(line, back)) << line;
    EXPECT_EQ(back, e) << line;
    EXPECT_EQ(JsonlTraceSink::formatLine(back), line);
}

TEST(JsonlTraceSink, ParseLineInvertsFormatLine)
{
    // Every event type, driver-side (node -1) and node-side, hostile
    // names from the fuzz alphabet above, and x values of nine
    // significant digits (what formatLine's %.9g keeps).
    const std::string alphabet =
        "\"\\\x01\x02\x08\x09\x0a\x0d\x1f{}[]:,/ abcZ\x7f";
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    auto next = [&]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (std::size_t t = 0; t < numTraceEventTypes; ++t) {
        const auto type = static_cast<TraceEventType>(t);
        for (const std::int16_t node : {-1, 0, 32767}) {
            for (int round = 0; round < 20; ++round) {
                std::string name;
                const std::size_t len = next() % (sizeof(TraceEvent::name));
                for (std::size_t i = 0; i < len; ++i)
                    name += alphabet[next() % alphabet.size()];
                char digits[40];
                std::snprintf(digits, sizeof(digits), "%s%llue%d",
                              next() % 2 ? "-" : "",
                              100'000'000ULL + next() % 900'000'000ULL,
                              static_cast<int>(next() % 600) - 300);
                expectRoundTrip(
                    fullEvent(type, node, name, std::strtod(digits, nullptr)));
            }
        }
        TraceEvent e = fullEvent(type, -32768, "", 0.0);
        e.job = 2147483647;
        e.time = 0;
        expectRoundTrip(e);
    }
}

TEST(JsonlTraceSink, ParseLineRefusesWhatFormatLineCannotWrite)
{
    const TraceEvent e =
        fullEvent(TraceEventType::WayStolen, 3, "", 0.25);
    const std::string good = JsonlTraceSink::formatLine(e);
    TraceEvent back;
    ASSERT_TRUE(JsonlTraceSink::parseLine(good, back)) << good;
    auto refused = [&](std::string line) {
        TraceEvent out = e;
        out.job = 99;
        const bool ok = JsonlTraceSink::parseLine(line, out);
        EXPECT_FALSE(ok) << line;
        EXPECT_EQ(out.job, 99) << "a refused line must not touch out";
    };
    // A non-finite x is written as nan/inf, which is not JSON.
    TraceEvent inf = e;
    inf.x = std::numeric_limits<double>::infinity();
    refused(JsonlTraceSink::formatLine(inf));
    TraceEvent nan = e;
    nan.x = std::numeric_limits<double>::quiet_NaN();
    refused(JsonlTraceSink::formatLine(nan));
    // Out of range for the field, missing keys, unknown events.
    refused("{\"ev\":\"way-stolen\",\"t\":1,\"node\":32768,\"job\":0,"
            "\"core\":0,\"stolen_total\":1,\"miss_increase\":0}");
    refused("{\"ev\":\"way-stolen\",\"t\":-1,\"node\":0,\"job\":0,"
            "\"core\":0,\"stolen_total\":1,\"miss_increase\":0}");
    refused("{\"ev\":\"way-stolen\",\"t\":1,\"node\":0,\"job\":0,"
            "\"core\":0,\"miss_increase\":0}");
    refused("{\"ev\":\"way-stole\",\"t\":1,\"node\":0,\"job\":0}");
    refused(good.substr(0, good.size() - 1));
    // A name longer than the event keeps, or one holding a NUL.
    refused("{\"ev\":\"job-rejected\",\"t\":1,\"node\":0,\"job\":0,"
            "\"reason\":\"" + std::string(sizeof(TraceEvent::name), 'r') +
            "\"}");
    refused("{\"ev\":\"job-rejected\",\"t\":1,\"node\":0,\"job\":0,"
            "\"reason\":\"a\\u0000b\"}");
    // The meta trailer is not an event, and an event is not a meta line.
    TraceMeta meta;
    EXPECT_FALSE(JsonlTraceSink::parseMetaLine(good, meta));
    refused("{\"ev\":\"meta\",\"seed\":1,\"nodes\":1,\"threads\":1,"
            "\"events\":0,\"drops\":0,\"wall_seconds\":0}");
}

TEST(JsonlTraceSink, ParseMetaLineInvertsTheTrailer)
{
    TraceMeta meta;
    meta.seed = 18446744073709551615ULL;
    meta.nodes = 16;
    meta.threads = 4;
    meta.drops = 3;
    meta.events = 123456;
    meta.wallSeconds = 12.3456789;
    std::ostringstream os;
    JsonlTraceSink sink(os);
    sink.close(meta);
    std::string line = os.str();
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    TraceMeta back;
    ASSERT_TRUE(JsonlTraceSink::parseMetaLine(line, back)) << line;
    EXPECT_EQ(back.seed, meta.seed);
    EXPECT_EQ(back.nodes, meta.nodes);
    EXPECT_EQ(back.threads, meta.threads);
    EXPECT_EQ(back.drops, meta.drops);
    EXPECT_EQ(back.events, meta.events);
    EXPECT_EQ(back.wallSeconds, meta.wallSeconds);
}

TEST(ChromeTraceSink, HostileNamesDoNotCorruptStream)
{
    std::ostringstream os;
    ChromeTraceSink sink(os);
    sink.consume(submitted("a\"b\\c\nd"));
    TraceEvent done = traceEvent(TraceEventType::DeadlineHit, 900, 1);
    done.node = 0;
    sink.consume(done);
    TraceMeta meta;
    meta.nodes = 1;
    sink.close(meta);

    const std::string out = os.str();
    // Raw newlines separate entries; no other control bytes may
    // appear, and the hostile payload must be escaped in place.
    for (const char c : out) {
        if (c != '\n') {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20);
        }
    }
    EXPECT_NE(out.find("a\\\"b\\\\c\\nd"), std::string::npos);
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '\n');
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(out.find("\"otherData\":{"), std::string::npos);
}

TEST(TraceEvent, SetNameTruncatesWithoutOverflow)
{
    TraceEvent e;
    e.setName(std::string(200, 'x'));
    EXPECT_EQ(std::string(e.name).size(), sizeof(e.name) - 1);
    e.setName("short");
    EXPECT_STREQ(e.name, "short");
}

} // namespace
} // namespace cmpqos
