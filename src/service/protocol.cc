#include "protocol.hh"

#include "common/json.hh"
#include "common/wire_codec.hh"

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

static_assert(std::variant_size_v<Message> == std::size(typeRows),
              "every Message alternative needs a TypeRow");

// --- JSON writer / reader visitors ---------------------------------
//
// The binary visitors live in common/wire_codec.hh, shared with the
// federation shard protocol; only the service protocol has a text
// mode.

struct JsonWriter
{
    std::string out;

    void raw(const char *name, const std::string &value)
    {
        out += ",\"";
        out += name;
        out += "\":";
        out += value;
    }
    void u8(const char *n, std::uint8_t v) { raw(n, std::to_string(v)); }
    void u32(const char *n, std::uint32_t v) { raw(n, std::to_string(v)); }
    void u64(const char *n, std::uint64_t v) { raw(n, std::to_string(v)); }
    void i32(const char *n, std::int32_t v) { raw(n, std::to_string(v)); }
    void f64(const char *n, double v) { raw(n, formatValue(v)); }
    void str(const char *n, const std::string &s)
    {
        raw(n, '"' + escapeJson(s) + '"');
    }
};

struct JsonReader
{
    const JsonObject &obj;
    bool ok = true;
    std::string err;

    // Missing fields keep their defaults (forward compatibility);
    // present fields of the wrong kind or out of the field type's
    // range are errors (common/json.hh has the rules).
    template <typename T> void read(const char *name, T &v, const char *what)
    {
        if (obj.get(name, v) == JsonField::Bad && ok) {
            ok = false;
            err = std::string("field '") + name + "': expected " + what;
        }
    }

    void u8(const char *n, std::uint8_t &v) { read(n, v, "a u8"); }
    void u32(const char *n, std::uint32_t &v) { read(n, v, "a u32"); }
    void u64(const char *n, std::uint64_t &v) { read(n, v, "a u64"); }
    void i32(const char *n, std::int32_t &v) { read(n, v, "an i32"); }
    void f64(const char *n, double &v) { read(n, v, "a finite number"); }
    void str(const char *n, std::string &v) { read(n, v, "a string"); }
};

// --- dispatch helpers ----------------------------------------------

/** Index of the first TypeRow @p match accepts; false if none. */
template <typename Match>
bool
rowIndex(Match match, std::size_t &index)
{
    for (std::size_t i = 0; i < std::size(typeRows); ++i) {
        if (match(typeRows[i])) {
            index = i;
            return true;
        }
    }
    return false;
}

/** @p r marked as an Error saying @p why. */
DecodeResult
decodeError(DecodeResult r, std::string why)
{
    r.status = DecodeResult::Status::Error;
    r.error = std::move(why);
    return r;
}

DecodeResult
decodeBinary(std::string_view buffer, std::size_t max_frame)
{
    DecodeResult r;
    std::uint32_t len = 0;
    if (!peekFrameLength(buffer, len))
        return r; // NeedMore
    if (len > max_frame)
        return decodeError(r, "oversized frame (" + std::to_string(len) +
                                  " > " + std::to_string(max_frame) +
                                  " bytes)");
    if (len == 0)
        return decodeError(r, "empty frame");
    if (buffer.size() - 4 < len)
        return r; // NeedMore
    r.consumed = 4 + len;
    const std::string_view payload = buffer.substr(4, len);
    const auto code = static_cast<std::uint8_t>(payload[0]);
    std::size_t index = 0;
    if (!rowIndex([&](const TypeRow &row) { return row.code == code; },
                  index))
        return decodeError(r, "unknown message type " +
                                  std::to_string(code));
    Message m;
    makeAlternative(index, m);
    BinReader reader{payload.substr(1), 0, true, {}};
    std::visit([&](auto &alt) { visitFields(alt, reader); }, m);
    if (!reader.ok)
        return decodeError(r, reader.err);
    if (reader.pos != payload.size() - 1)
        return decodeError(r, "trailing bytes in frame");
    r.status = DecodeResult::Status::Ok;
    r.message = std::move(m);
    return r;
}

DecodeResult
decodeJsonl(std::string_view buffer, std::size_t max_frame)
{
    DecodeResult r;
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string_view::npos) {
        if (buffer.size() > max_frame)
            return decodeError(r, "oversized line (no newline within " +
                                      std::to_string(max_frame) +
                                      " bytes)");
        return r; // NeedMore
    }
    r.consumed = nl + 1;
    const std::string_view line = buffer.substr(0, nl);
    if (line.size() > max_frame)
        return decodeError(r, "oversized line");
    JsonObject obj;
    if (!obj.parse(line))
        return decodeError(r, "bad JSON: " + obj.error());
    std::string op;
    if (obj.get("op", op) != JsonField::Ok)
        return decodeError(r, "missing \"op\" field");
    std::size_t index = 0;
    if (!rowIndex([&](const TypeRow &row) { return op == row.op; },
                  index))
        return decodeError(r, "unknown op '" + op + "'");
    Message m;
    makeAlternative(index, m);
    JsonReader reader{obj, true, {}};
    std::visit([&](auto &alt) { visitFields(alt, reader); }, m);
    if (!reader.ok)
        return decodeError(r, reader.err);
    r.status = DecodeResult::Status::Ok;
    r.message = std::move(m);
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

} // namespace cmpqos
