#include "protocol.hh"

#include <cstdlib>
#include <map>

#include "common/wire_codec.hh"
#include "telemetry/sink.hh" // escapeJson

namespace cmpqos
{

// --- field visitation ----------------------------------------------
//
// Each message type lists its fields once, in wire order, and the
// codec directions (binary/JSONL x encode/decode, plus the schema
// recorder) are visitors over that list. Adding a field in one place
// updates every framing and keeps the binary layout and the JSON keys
// in lockstep with docs/PROTOCOL.md. The lists sit outside the
// anonymous namespace: recordWireSchema (common/wire_codec.hh) finds
// them by argument-dependent lookup, which does not look inside it.

template <typename V> void visitFields(Hello &m, V &v)
{
    v.u32("version", m.version);
    v.str("client", m.client);
}

template <typename V> void visitFields(HelloAck &m, V &v)
{
    v.u32("version", m.version);
    v.u64("epoch", m.epoch);
    v.u32("nodes", m.nodes);
    v.u64("quantum", m.quantum);
    v.u64("seed", m.seed);
    v.str("server", m.server);
}

template <typename V> void visitFields(Submit &m, V &v)
{
    v.u32("ticket", m.ticket);
    v.u8("tier", m.tier);
    v.u64("instructions", m.instructions);
    v.u64("time", m.time);
    v.str("benchmark", m.benchmark);
}

template <typename V> void visitFields(SubmitReply &m, V &v)
{
    v.u32("ticket", m.ticket);
    v.u64("seq", m.seq);
    v.u8("outcome", m.outcome);
    v.i32("node", m.node);
    v.u64("time", m.time);
    v.u64("slot_start", m.slotStart);
    v.f64("deadline_factor", m.deadlineFactor);
    v.str("error", m.error);
}

template <typename V> void visitFields(Subscribe &m, V &v)
{
    v.u8("enable", m.enable);
}

template <typename V> void visitFields(SubscribeAck &m, V &v)
{
    v.u8("enabled", m.enabled);
}

template <typename V> void visitFields(Status &, V &) {}

template <typename V> void visitFields(StatusReply &m, V &v)
{
    v.u64("epoch", m.epoch);
    v.u8("state", m.state);
    v.u64("submitted", m.submitted);
    v.u64("accepted", m.accepted);
    v.u64("rejected", m.rejected);
    v.u64("negotiated", m.negotiated);
    v.u64("completed", m.completed);
    v.u64("virtual_time", m.virtualTime);
    v.u32("sessions", m.sessions);
}

template <typename V> void visitFields(Drain &m, V &v)
{
    v.u8("shutdown", m.shutdown);
}

template <typename V> void visitFields(DrainDone &m, V &v)
{
    v.u64("epoch", m.epoch);
    v.u64("submitted", m.submitted);
    v.u64("accepted", m.accepted);
    v.u64("completed", m.completed);
    v.str("fingerprint", m.fingerprint);
}

template <typename V> void visitFields(Reconfig &m, V &v)
{
    v.str("directives", m.directives);
}

template <typename V> void visitFields(ReconfigAck &m, V &v)
{
    v.u64("epoch", m.epoch);
    v.str("error", m.error);
}

template <typename V> void visitFields(EventMsg &m, V &v)
{
    v.u64("epoch", m.epoch);
    v.str("line", m.line);
}

template <typename V> void visitFields(ErrorMsg &m, V &v)
{
    v.u32("code", m.code);
    v.str("message", m.message);
}

namespace
{

// --- type <-> code / op-name table ---------------------------------

struct TypeRow
{
    std::uint8_t code;
    const char *op;
};

// Indexed by std::variant alternative index; codes are the binary
// type byte and are frozen by docs/PROTOCOL.md.
constexpr TypeRow typeRows[] = {
    {1, "hello"},         {2, "hello-ack"},     {3, "submit"},
    {4, "submit-reply"},  {5, "subscribe"},     {6, "subscribe-ack"},
    {7, "status"},        {8, "status-reply"},  {9, "drain"},
    {10, "drain-done"},   {11, "reconfig"},     {12, "reconfig-ack"},
    {13, "event"},        {14, "error"},
};

static_assert(std::variant_size_v<Message> ==
                  sizeof(typeRows) / sizeof(typeRows[0]),
              "every Message alternative needs a TypeRow");

// --- binary writer / reader ----------------------------------------
//
// The binary field visitors moved to common/wire_codec.hh so the
// federation shard protocol shares them; this file keeps the JSONL
// visitors (only the service protocol has a text mode).

// --- minimal JSON value / parser -----------------------------------
//
// The protocol's JSONL mode only needs flat objects of strings,
// numbers and booleans; nesting is a protocol error. The parser is
// bounds-checked throughout and never throws — fuzzed inputs must
// fail with a message, not a crash.

struct JsonValue
{
    enum class Kind
    {
        Str,
        Num,
        Bool,
        Null
    };
    Kind kind = Kind::Null;
    std::string s;
    double num = 0.0;
    std::uint64_t u = 0;
    bool isInt = false;
    bool b = false;
};

struct JsonParser
{
    std::string_view in;
    std::size_t pos = 0;
    std::string err;

    bool fail(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }
    void skipWs()
    {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\r' ||
                in[pos] == '\n'))
            ++pos;
    }
    bool literal(std::string_view lit)
    {
        if (in.substr(pos, lit.size()) != lit)
            return false;
        pos += lit.size();
        return true;
    }

    bool parseString(std::string &out)
    {
        if (pos >= in.size() || in[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < in.size()) {
            const char c = in[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= in.size())
                    return fail("dangling escape");
                const char e = in[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                    if (pos + 4 > in.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = in[pos + static_cast<std::size_t>(i)];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    pos += 4;
                    // Encode the BMP codepoint as UTF-8 (surrogate
                    // halves are replaced, not recombined — protocol
                    // strings are ASCII identifiers in practice).
                    if (cp < 0x80) {
                        out.push_back(static_cast<char>(cp));
                    } else if (cp < 0x800) {
                        out.push_back(
                            static_cast<char>(0xc0 | (cp >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (cp & 0x3f)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xe0 | (cp >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((cp >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (cp & 0x3f)));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            out.push_back(c);
            ++pos;
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue &v)
    {
        const std::size_t start = pos;
        if (pos < in.size() && in[pos] == '-')
            ++pos;
        bool digits = false, fractional = false;
        while (pos < in.size()) {
            const char c = in[pos];
            if (c >= '0' && c <= '9') {
                digits = true;
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                fractional = true;
                ++pos;
            } else {
                break;
            }
        }
        if (!digits)
            return fail("malformed number");
        const std::string token(in.substr(start, pos - start));
        v.kind = JsonValue::Kind::Num;
        v.num = std::strtod(token.c_str(), nullptr);
        v.isInt = !fractional && token[0] != '-';
        if (v.isInt)
            v.u = std::strtoull(token.c_str(), nullptr, 10);
        return true;
    }

    bool parseValue(JsonValue &v)
    {
        skipWs();
        if (pos >= in.size())
            return fail("unexpected end of input");
        const char c = in[pos];
        if (c == '"') {
            v.kind = JsonValue::Kind::Str;
            return parseString(v.s);
        }
        if (c == 't') {
            if (!literal("true"))
                return fail("bad literal");
            v.kind = JsonValue::Kind::Bool;
            v.b = true;
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return fail("bad literal");
            v.kind = JsonValue::Kind::Bool;
            v.b = false;
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return fail("bad literal");
            v.kind = JsonValue::Kind::Null;
            return true;
        }
        if (c == '{' || c == '[')
            return fail("nested values are not part of the protocol");
        return parseNumber(v);
    }

    /** Parse one flat object into @p out; false (err set) on error. */
    bool parseObject(std::map<std::string, JsonValue> &out)
    {
        skipWs();
        if (pos >= in.size() || in[pos] != '{')
            return fail("expected '{'");
        ++pos;
        skipWs();
        if (pos < in.size() && in[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= in.size() || in[pos] != ':')
                return fail("expected ':'");
            ++pos;
            JsonValue v;
            if (!parseValue(v))
                return false;
            out[key] = std::move(v);
            skipWs();
            if (pos < in.size() && in[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < in.size() && in[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }
};

// --- JSON writer / reader visitors ---------------------------------

struct JsonWriter
{
    std::string out;

    void key(const char *name)
    {
        out.push_back(',');
        out.push_back('"');
        out.append(name);
        out.append("\":");
    }
    void u8(const char *name, std::uint8_t v)
    {
        key(name);
        out.append(std::to_string(static_cast<unsigned>(v)));
    }
    void u32(const char *name, std::uint32_t v)
    {
        key(name);
        out.append(std::to_string(v));
    }
    void u64(const char *name, std::uint64_t v)
    {
        key(name);
        out.append(std::to_string(v));
    }
    void i32(const char *name, std::int32_t v)
    {
        key(name);
        out.append(std::to_string(v));
    }
    void f64(const char *name, double v)
    {
        key(name);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out.append(buf);
    }
    void str(const char *name, const std::string &s)
    {
        key(name);
        out.push_back('"');
        out.append(escapeJson(s));
        out.push_back('"');
    }
};

struct JsonReader
{
    const std::map<std::string, JsonValue> &obj;
    bool ok = true;
    std::string err;

    // Missing fields keep their defaults (forward compatibility);
    // present-but-mistyped fields are errors.
    const JsonValue *find(const char *name)
    {
        const auto it = obj.find(name);
        return it == obj.end() ? nullptr : &it->second;
    }
    void fail(const char *name, const char *what)
    {
        if (ok) {
            ok = false;
            err = std::string("field '") + name + "': " + what;
        }
    }

    void u8(const char *name, std::uint8_t &v)
    {
        const JsonValue *j = find(name);
        if (j == nullptr)
            return;
        if (j->kind != JsonValue::Kind::Num || !j->isInt ||
            j->u > 0xff)
            return fail(name, "expected a small integer");
        v = static_cast<std::uint8_t>(j->u);
    }
    void u32(const char *name, std::uint32_t &v)
    {
        const JsonValue *j = find(name);
        if (j == nullptr)
            return;
        if (j->kind != JsonValue::Kind::Num || !j->isInt ||
            j->u > 0xffffffffULL)
            return fail(name, "expected a u32");
        v = static_cast<std::uint32_t>(j->u);
    }
    void u64(const char *name, std::uint64_t &v)
    {
        const JsonValue *j = find(name);
        if (j == nullptr)
            return;
        if (j->kind != JsonValue::Kind::Num || !j->isInt)
            return fail(name, "expected a u64");
        v = j->u;
    }
    void i32(const char *name, std::int32_t &v)
    {
        const JsonValue *j = find(name);
        if (j == nullptr)
            return;
        if (j->kind != JsonValue::Kind::Num)
            return fail(name, "expected an integer");
        v = static_cast<std::int32_t>(j->num);
    }
    void f64(const char *name, double &v)
    {
        const JsonValue *j = find(name);
        if (j == nullptr)
            return;
        if (j->kind != JsonValue::Kind::Num)
            return fail(name, "expected a number");
        v = j->num;
    }
    void str(const char *name, std::string &v)
    {
        const JsonValue *j = find(name);
        if (j == nullptr)
            return;
        if (j->kind != JsonValue::Kind::Str)
            return fail(name, "expected a string");
        v = j->s;
    }
};

// --- dispatch helpers ----------------------------------------------

bool
typeCodeToIndex(std::uint8_t code, std::size_t &index)
{
    for (std::size_t i = 0;
         i < sizeof(typeRows) / sizeof(typeRows[0]); ++i) {
        if (typeRows[i].code == code) {
            index = i;
            return true;
        }
    }
    return false;
}

bool
opNameToIndex(const std::string &op, std::size_t &index)
{
    for (std::size_t i = 0;
         i < sizeof(typeRows) / sizeof(typeRows[0]); ++i) {
        if (op == typeRows[i].op) {
            index = i;
            return true;
        }
    }
    return false;
}

DecodeResult
decodeBinary(std::string_view buffer, std::size_t max_frame)
{
    DecodeResult r;
    std::uint32_t len = 0;
    if (!peekFrameLength(buffer, len)) {
        r.status = DecodeResult::Status::NeedMore;
        return r;
    }
    if (len > max_frame) {
        r.status = DecodeResult::Status::Error;
        r.error = "oversized frame (" + std::to_string(len) +
                  " > " + std::to_string(max_frame) + " bytes)";
        return r;
    }
    if (len == 0) {
        r.status = DecodeResult::Status::Error;
        r.error = "empty frame";
        return r;
    }
    if (buffer.size() - 4 < len) {
        r.status = DecodeResult::Status::NeedMore;
        return r;
    }
    const std::string_view payload = buffer.substr(4, len);
    const auto code = static_cast<std::uint8_t>(payload[0]);
    std::size_t index = 0;
    if (!typeCodeToIndex(code, index)) {
        r.status = DecodeResult::Status::Error;
        r.error = "unknown message type " + std::to_string(code);
        r.consumed = 4 + len;
        return r;
    }
    Message m;
    makeAlternative(index, m);
    BinReader reader{payload.substr(1), 0, true, {}};
    std::visit([&](auto &alt) { visitFields(alt, reader); }, m);
    if (!reader.ok) {
        r.status = DecodeResult::Status::Error;
        r.error = reader.err;
    } else if (reader.pos != payload.size() - 1) {
        r.status = DecodeResult::Status::Error;
        r.error = "trailing bytes in frame";
    } else {
        r.status = DecodeResult::Status::Ok;
        r.message = std::move(m);
    }
    r.consumed = 4 + len;
    return r;
}

DecodeResult
decodeJsonl(std::string_view buffer, std::size_t max_frame)
{
    DecodeResult r;
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string_view::npos) {
        if (buffer.size() > max_frame) {
            r.status = DecodeResult::Status::Error;
            r.error = "oversized line (no newline within " +
                      std::to_string(max_frame) + " bytes)";
        } else {
            r.status = DecodeResult::Status::NeedMore;
        }
        return r;
    }
    r.consumed = nl + 1;
    std::string_view line = buffer.substr(0, nl);
    if (line.size() > max_frame) {
        r.status = DecodeResult::Status::Error;
        r.error = "oversized line";
        return r;
    }
    JsonParser parser{line, 0, {}};
    std::map<std::string, JsonValue> obj;
    if (!parser.parseObject(obj)) {
        r.status = DecodeResult::Status::Error;
        r.error = "bad JSON: " + parser.err;
        return r;
    }
    parser.skipWs();
    if (parser.pos != line.size()) {
        r.status = DecodeResult::Status::Error;
        r.error = "trailing bytes after JSON object";
        return r;
    }
    const auto op_it = obj.find("op");
    if (op_it == obj.end() ||
        op_it->second.kind != JsonValue::Kind::Str) {
        r.status = DecodeResult::Status::Error;
        r.error = "missing \"op\" field";
        return r;
    }
    std::size_t index = 0;
    if (!opNameToIndex(op_it->second.s, index)) {
        r.status = DecodeResult::Status::Error;
        r.error = "unknown op '" + op_it->second.s + "'";
        return r;
    }
    Message m;
    makeAlternative(index, m);
    JsonReader reader{obj, true, {}};
    std::visit([&](auto &alt) { visitFields(alt, reader); }, m);
    if (!reader.ok) {
        r.status = DecodeResult::Status::Error;
        r.error = reader.err;
    } else {
        r.status = DecodeResult::Status::Ok;
        r.message = std::move(m);
    }
    return r;
}

} // namespace

const char *
messageOpName(const Message &m)
{
    return typeRows[m.index()].op;
}

std::string
encodeMessage(const Message &m, WireMode mode)
{
    if (mode == WireMode::Binary) {
        BinWriter w;
        w.out.push_back(static_cast<char>(typeRows[m.index()].code));
        // The writer only reads the fields; visitFields takes a
        // mutable reference so the same overloads serve the decoders.
        std::visit(
            [&](auto &alt) {
                using T = std::remove_cvref_t<decltype(alt)>;
                visitFields(const_cast<T &>(alt), w);
            },
            m);
        std::string frame;
        frame.reserve(4 + w.out.size());
        appendFrameLength(frame, static_cast<std::uint32_t>(w.out.size()));
        frame += w.out;
        return frame;
    }
    JsonWriter w;
    w.out = "{\"op\":\"";
    w.out += typeRows[m.index()].op;
    w.out.push_back('"');
    std::visit(
        [&](auto &alt) {
            using T = std::remove_cvref_t<decltype(alt)>;
            visitFields(const_cast<T &>(alt), w);
        },
        m);
    w.out += "}\n";
    return w.out;
}

DecodeResult
decodeFrame(std::string_view buffer, WireMode mode,
            std::size_t max_frame)
{
    return mode == WireMode::Binary ? decodeBinary(buffer, max_frame)
                                    : decodeJsonl(buffer, max_frame);
}

WireSchema
serviceWireSchema()
{
    return recordWireSchema<Message>("service", "Message",
                                     "protocolVersion", protocolVersion);
}

WireMode
detectWireMode(char first_byte)
{
    // Only '{' selects JSONL: every whitespace byte is also a
    // plausible low length byte of a small binary frame (a 13-byte
    // Hello starts with '\r'), so a JSONL line must start with its
    // opening brace. The remaining collision -- a binary first frame
    // of exactly 0x7b payload bytes -- cannot occur because Hello
    // caps the client name (see maxHelloClientName).
    return first_byte == '{' ? WireMode::Jsonl : WireMode::Binary;
}

bool
parseQosTier(std::string_view name, QosTier &out)
{
    if (name == "gold")
        out = QosTier::Gold;
    else if (name == "silver")
        out = QosTier::Silver;
    else if (name == "bronze")
        out = QosTier::Bronze;
    else
        return false;
    return true;
}

} // namespace cmpqos
