/**
 * @file
 * The wire schema the codec records, and docs/SCHEMA.lock that pins it.
 * serviceWireSchema() and fedWireSchema() run SchemaWriter over every
 * alternative of their message variant; this file renders the lock.
 * WireSchemaBytes checks each schema against the bytes the codec
 * writes. SchemaLock diffs the rendered lock against docs/SCHEMA.lock,
 * or with UPDATE_GOLDEN=1 rewrites it once every changed protocol has
 * raised its version. SchemaLockGate runs that diff and that gate on
 * mutated schemas. Each suite is one ctest entry (tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/wire_codec.hh"
#include "federation/message.hh"
#include "service/protocol.hh"

namespace cmpqos
{
namespace
{

/** Bytes @p fields encode to when every string, blob and vector is
 *  empty and every list holds @p elements default elements, from the
 *  codec's documented widths (a length-prefixed primitive counts its
 *  prefix), not from the codec. */
std::size_t
schemaWidth(const WireSchema &s, const std::vector<WireField> &fields,
            std::size_t elements = 0)
{
    static const std::map<std::string, std::size_t> width = {
        {"u8", 1},  {"u32", 4},   {"i32", 4},    {"u64", 8}, {"f64", 8},
        {"str", 2}, {"bytes", 4}, {"u64vec", 4}, {"list", 4}};
    std::size_t n = 0;
    for (const WireField &f : fields) {
        n += f.kind == "embed" ? schemaWidth(s, s.nested.at(f.type))
                               : width.at(f.kind);
        if (f.kind == "list")
            n += elements * schemaWidth(s, s.nested.at(f.type));
    }
    return n;
}

/** Every default alternative of @p Variant encodes to @p header bytes
 *  plus its schema's width. */
template <typename Variant, typename Encode>
void
expectSchemaWidths(const WireSchema &s, std::size_t header, Encode encode)
{
    ASSERT_EQ(s.messages.size(), std::variant_size_v<Variant>);
    for (std::size_t i = 0; i < s.messages.size(); ++i) {
        Variant m;
        ASSERT_TRUE(makeAlternative(i, m));
        EXPECT_EQ(encode(m).size(),
                  header + schemaWidth(s, s.messages[i].fields))
            << s.messages[i].name;
    }
}

TEST(WireSchemaBytes, EveryServiceMessage)
{
    // [u32 frame length][u8 type][fields]
    expectSchemaWidths<Message>(serviceWireSchema(), 4 + 1, [](auto &m) {
        return encodeMessage(m, WireMode::Binary);
    });
}

TEST(WireSchemaBytes, EveryFederationMessage)
{
    // [u64 seq][u8 type][fields]
    expectSchemaWidths<FedMessage>(fedWireSchema(), 8 + 1, [](auto &m) {
        return encodeFedPayload(0, m);
    });
}

TEST(WireSchemaBytes, EveryNestedFederationStruct)
{
    // FedProbe embeds a WireJobRequest; one element in each list puts
    // WireProbe, WireLostJob (embedding another) and WireNodeMetrics
    // on the wire.
    const WireSchema s = fedWireSchema();
    EXPECT_EQ(s.nested.size(), 4u);
    FedProbeReply probes;
    probes.probes.emplace_back();
    FedCrashReport crash;
    crash.waiting.emplace_back();
    FedSnapshotReply snapshot;
    snapshot.nodes.emplace_back();
    for (const FedMessage &m :
         std::vector<FedMessage>{FedProbe{}, probes, crash, snapshot}) {
        const WireStruct &msg = s.messages[m.index()];
        EXPECT_EQ(encodeFedPayload(0, m).size(),
                  8 + 1 + schemaWidth(s, msg.fields, 1))
            << msg.name;
    }
}

// --- the lock ------------------------------------------------------

std::string
renderLock(const std::vector<WireSchema> &protocols)
{
    std::string out =
        "# cmpqos wire-schema lock — recorded by running the visitFields\n"
        "# codec (tests/wire/test_wire_schema.cc). Do not edit by hand:\n"
        "# bump the owning protocol's version constant, then regenerate\n"
        "# with `UPDATE_GOLDEN=1 ctest -R qoslint_schema_lock` (see\n"
        "# docs/PROTOCOL.md).\n"
        "lock-format 1\n"
        "codec";
    for (const char *p : SchemaWriter::primitives)
        out += std::string(" ") + p;
    out += "\n";
    auto section = [&](const std::string &name,
                       const std::vector<WireField> &fields) {
        out += "  struct " + name + "\n";
        for (std::size_t i = 0; i < fields.size(); ++i)
            out += "    field " + std::to_string(i) + " " +
                   fields[i].kind + " " + fields[i].name + "\n";
        out += "  endstruct\n";
    };
    for (const WireSchema &p : protocols) {
        out += "\nprotocol " + p.protocol + "\n  version " +
               std::to_string(p.version) + " via " + p.versionConst +
               "\n  variant " + p.variant + "\n";
        for (std::size_t id = 0; id < p.messages.size(); ++id)
            out += "  type " + std::to_string(id) + " " +
                   p.messages[id].name + "\n";
        for (const WireStruct &m : p.messages)
            section(m.name, m.fields);
        for (const auto &[name, fields] : p.nested)
            section(name, fields);
        out += "endprotocol\n";
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

/** A line diff of the two texts by longest common subsequence: '-'
 *  for the lock's lines, '+' for the recorded ones. */
std::string
lockDiff(const std::string &locked, const std::string &recorded)
{
    const std::vector<std::string> a = splitLines(locked);
    const std::vector<std::string> b = splitLines(recorded);
    // common[i][j]: length of the LCS of a[i..] and b[j..].
    std::vector<std::vector<std::size_t>> common(
        a.size() + 1, std::vector<std::size_t>(b.size() + 1));
    for (std::size_t i = a.size(); i-- > 0;)
        for (std::size_t j = b.size(); j-- > 0;)
            common[i][j] = a[i] == b[j] ? common[i + 1][j + 1] + 1
                                        : std::max(common[i + 1][j],
                                                   common[i][j + 1]);
    std::string out;
    for (std::size_t i = 0, j = 0; i < a.size() || j < b.size();) {
        if (i < a.size() && j < b.size() && a[i] == b[j])
            ++i, ++j;
        else if (j == b.size() ||
                 (i < a.size() && common[i + 1][j] >= common[i][j + 1]))
            out += "-" + a[i++] + "\n";
        else
            out += "+" + b[j++] + "\n";
    }
    return out;
}

/** Per protocol, its version and the rest of its section; the lines
 *  outside every protocol (the codec line) under "". Comments and
 *  blank lines are not part of any section. */
std::map<std::string, std::pair<unsigned long, std::string>>
lockSections(const std::string &lock)
{
    std::map<std::string, std::pair<unsigned long, std::string>> s;
    std::string current;
    for (const std::string &line : splitLines(lock)) {
        if (line.starts_with("protocol "))
            current = line.substr(9);
        else if (line == "endprotocol")
            current.clear();
        else if (line.starts_with("  version "))
            s[current].first = std::stoul(line.substr(10));
        else if (!line.empty() && !line.starts_with("#"))
            s[current].second += line + "\n";
    }
    return s;
}

/** Why @p recorded may not replace @p locked; empty when it may. A
 *  protocol whose section changed (every one, when the codec line
 *  did) must have raised its version. */
std::string
updateRefusal(const std::string &locked, const std::string &recorded)
{
    auto old = lockSections(locked), now = lockSections(recorded);
    const bool codec_changed = old.contains("") && old[""] != now[""];
    std::string why;
    for (const auto &[name, p] : now) {
        const auto it = old.find(name);
        if (!name.empty() && it != old.end() &&
            (codec_changed || it->second.second != p.second) &&
            p.first <= it->second.first)
            why += "protocol '" + name + "' changed on the wire but its "
                   "version is still " + std::to_string(p.first) +
                   "; bump it before regenerating\n";
    }
    return why;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << text;
    ASSERT_TRUE(f.good()) << "cannot write " << path;
}

TEST(SchemaLock, MatchesTheCodec)
{
    const std::string recorded =
        renderLock({serviceWireSchema(), fedWireSchema()});
    writeText(CMPQOS_SCHEMA_EXTRACTED, recorded);
    std::ostringstream lock;
    lock << std::ifstream(CMPQOS_SCHEMA_LOCK, std::ios::binary).rdbuf();
    const std::string locked = lock.str();
    const char *update = std::getenv("UPDATE_GOLDEN");
    if (update != nullptr && std::string(update) == "1") {
        ASSERT_EQ(updateRefusal(locked, recorded), "")
            << lockDiff(locked, recorded);
        writeText(CMPQOS_SCHEMA_LOCK, recorded);
        return;
    }
    EXPECT_TRUE(locked == recorded)
        << CMPQOS_SCHEMA_LOCK << " differs from the codec's schema:\n"
        << lockDiff(locked, recorded)
        << "If the wire change is intentional, bump the protocol's "
           "version constant and regenerate with UPDATE_GOLDEN=1 "
           "(docs/PROTOCOL.md).";
}

// --- the gate, on mutated schemas ----------------------------------
//
// The cases run on a fixed demo wire, recorded by the same SchemaWriter,
// so they do not move when the real protocols change: a nested struct,
// two messages with the same (empty) field list, and a second protocol
// that must not be asked to bump.

struct Span
{
    std::uint64_t from = 0;
    std::uint64_t to = 0;
};
struct Open
{
    std::uint32_t version = 0;
    std::uint8_t tier = 0;
    Span span;
};
struct Ping
{
};
struct Pong
{
};
template <typename V> void visitFields(Span &m, V &v)
{
    v.u64("from", m.from);
    v.u64("to", m.to);
}
template <typename V> void visitFields(Open &m, V &v)
{
    v.u32("version", m.version);
    v.u8("tier", m.tier);
    v.embed("span", m.span);
}
template <typename V> void visitFields(Ping &, V &) {}
template <typename V> void visitFields(Pong &, V &) {}

/** Each case mutates the demo schemas and judges the result against
 *  the lock the unmutated ones render. */
class SchemaLockGate : public ::testing::Test
{
  protected:
    std::vector<WireSchema> schemas = {
        recordWireSchema<std::variant<Open, Ping, Pong>>("demo", "Demo",
                                                         "demoVersion", 1),
        recordWireSchema<std::variant<Ping, Pong>>("peer", "Peer",
                                                   "peerVersion", 1)};
    const std::string locked = renderLock(schemas);
    WireSchema &demo = schemas[0];
    WireSchema &peer = schemas[1];

    std::vector<WireField> &open() { return demo.messages[0].fields; }

    std::string refusal() const
    {
        return updateRefusal(locked, renderLock(schemas));
    }

    /** The mutation fails the lock with a diff holding @p line; the
     *  gate refuses it until @p owner raises its version. */
    void expectGated(WireSchema &owner, const std::string &line)
    {
        const std::string diff = lockDiff(locked, renderLock(schemas));
        EXPECT_NE(diff.find(line + "\n"), std::string::npos) << diff;
        EXPECT_NE(refusal().find("'" + owner.protocol + "'"),
                  std::string::npos)
            << refusal();
        ++owner.version;
        EXPECT_EQ(refusal(), "");
    }
};

TEST_F(SchemaLockGate, UnchangedSchemaPasses)
{
    EXPECT_EQ(lockDiff(locked, renderLock(schemas)), "");
    EXPECT_EQ(refusal(), "");
}

TEST_F(SchemaLockGate, FieldAdded)
{
    open().push_back({"u64", "deadline", ""});
    expectGated(demo, "+    field 3 u64 deadline");
}

TEST_F(SchemaLockGate, FieldReordered)
{
    std::swap(open()[0], open()[1]);
    expectGated(demo, "+    field 0 u8 tier");
}

TEST_F(SchemaLockGate, FieldRetyped)
{
    open()[1].kind = "u32";
    expectGated(demo, "+    field 1 u32 tier");
}

TEST_F(SchemaLockGate, NestedFieldRemoved)
{
    demo.nested.at("Span").pop_back();
    expectGated(demo, "-    field 1 u64 to");
}

TEST_F(SchemaLockGate, MessageRemoved)
{
    demo.messages.pop_back();
    expectGated(demo, "-  type 2 Pong");
}

TEST_F(SchemaLockGate, ReorderingEmptyMessagesChangesTheLock)
{
    peer = recordWireSchema<std::variant<Pong, Ping>>("peer", "Peer",
                                                      "peerVersion", 1);
    expectGated(peer, "+  type 0 Pong");
}

TEST_F(SchemaLockGate, UpdateWithoutBumpIsRefused)
{
    open().push_back({"u8", "flags", ""});
    EXPECT_EQ(refusal(), "protocol 'demo' changed on the wire but its "
                         "version is still 1; bump it before "
                         "regenerating\n");
}

TEST_F(SchemaLockGate, UpdateWithBumpIsAccepted)
{
    // Only the protocol whose section changed has to move.
    open().push_back({"u8", "flags", ""});
    ++demo.version;
    EXPECT_EQ(refusal(), "");
}

TEST_F(SchemaLockGate, CodecChangeNeedsEveryProtocolBumped)
{
    auto wider = [this] {
        std::string text = renderLock(schemas);
        return text.replace(text.find("codec u8 "), 9, "codec u8 u16 ");
    };
    EXPECT_NE(lockDiff(locked, wider()).find("+codec u8 u16 u32"),
              std::string::npos);
    ++demo.version;
    EXPECT_EQ(updateRefusal(locked, wider()),
              "protocol 'peer' changed on the wire but its version is "
              "still 1; bump it before regenerating\n");
    ++peer.version;
    EXPECT_EQ(updateRefusal(locked, wider()), "");
}

} // namespace
} // namespace cmpqos
