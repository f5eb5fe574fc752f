#include "sink.hh"

#include <cstdio>
#include <ostream>

namespace cmpqos
{

namespace
{

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Cycles -> microseconds at the simulated 2GHz core clock. */
std::string
cyclesToUs(Cycle c)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  static_cast<double>(c) / 2000.0);
    return buf;
}

/** Chrome pid row: driver/GAC (node -1) is 0, node n is n+1. */
int
chromePid(const TraceEvent &e)
{
    return static_cast<int>(e.node) + 1;
}

/** Stable async-span id for one job on one node. */
std::uint64_t
spanId(const TraceEvent &e)
{
    return (static_cast<std::uint64_t>(e.node + 1) << 32) |
           static_cast<std::uint32_t>(e.job);
}

/** `,"key":value` for each payload field @p e's type names, in
 *  payloadKeys order: the body both JSON exporters write. */
std::string
payloadJson(const TraceEvent &e)
{
    const TracePayloadKeys &k = payloadKeys(e.type);
    std::string s;
    if (k.a != nullptr)
        s += ",\"" + std::string(k.a) + "\":" + std::to_string(e.a);
    if (k.b != nullptr)
        s += ",\"" + std::string(k.b) + "\":" + std::to_string(e.b);
    if (k.x != nullptr)
        s += ",\"" + std::string(k.x) + "\":" + num(e.x);
    if (k.name != nullptr)
        s += ",\"" + std::string(k.name) + "\":\"" + escapeJson(e.name) +
             "\"";
    return s;
}

std::string
argsJson(const TraceEvent &e)
{
    const std::string body = payloadJson(e);
    return "{" + (body.empty() ? body : body.substr(1)) + "}";
}

/** Parse @p line as one JSON object and read its "ev" name. */
bool
readLine(std::string_view line, JsonObject &obj, std::string &ev)
{
    return obj.parse(line) && obj.get("ev", ev) == JsonField::Ok;
}

} // namespace

JsonlTraceSink::JsonlTraceSink(std::ostream &os) : os_(os) {}

std::string
JsonlTraceSink::formatLine(const TraceEvent &e)
{
    std::string line = "{\"ev\":\"";
    line += traceEventName(e.type);
    line += "\",\"t\":" + std::to_string(e.time);
    line += ",\"node\":" + std::to_string(e.node);
    line += ",\"job\":" + std::to_string(e.job);
    line += payloadJson(e);
    line += '}';
    return line;
}

bool
JsonlTraceSink::parseLine(std::string_view line, TraceEvent &out)
{
    JsonObject obj;
    std::string ev;
    TraceEvent e;
    if (!readLine(line, obj, ev) || !traceEventFromName(ev, e.type))
        return false;
    const TracePayloadKeys &k = payloadKeys(e.type);
    auto has = [&](const char *key, auto &field) {
        return key == nullptr || obj.get(key, field) == JsonField::Ok;
    };
    std::string name;
    if (!has("t", e.time) || !has("node", e.node) || !has("job", e.job) ||
        !has(k.a, e.a) || !has(k.b, e.b) || !has(k.x, e.x) ||
        !has(k.name, name))
        return false;
    // formatLine writes the NUL-terminated name, so it never holds a
    // NUL or more bytes than the field keeps.
    if (name.size() >= sizeof(e.name) ||
        name.find('\0') != std::string::npos)
        return false;
    e.setName(name);
    out = e;
    return true;
}

bool
JsonlTraceSink::parseMetaLine(std::string_view line, TraceMeta &out)
{
    JsonObject obj;
    std::string ev;
    TraceMeta m;
    if (!readLine(line, obj, ev) || ev != "meta")
        return false;
    auto has = [&](const char *key, auto &field) {
        return obj.get(key, field) == JsonField::Ok;
    };
    if (!has("seed", m.seed) || !has("nodes", m.nodes) ||
        !has("threads", m.threads) || !has("events", m.events) ||
        !has("drops", m.drops) || !has("wall_seconds", m.wallSeconds))
        return false;
    out = m;
    return true;
}

void
JsonlTraceSink::consume(const TraceEvent &e)
{
    os_ << formatLine(e) << '\n';
}

void
JsonlTraceSink::close(const TraceMeta &meta)
{
    // The ONLY line with host-side fields: everything above it is
    // simulation-determined and thread-count-invariant.
    os_ << "{\"ev\":\"meta\",\"seed\":" << meta.seed
        << ",\"nodes\":" << meta.nodes << ",\"threads\":" << meta.threads
        << ",\"events\":" << meta.events << ",\"drops\":" << meta.drops
        << ",\"wall_seconds\":" << num(meta.wallSeconds) << "}\n";
    os_.flush();
}

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(os)
{
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

void
ChromeTraceSink::entry(const std::string &body)
{
    if (!first_)
        os_ << ',';
    first_ = false;
    os_ << '\n' << body;
}

void
ChromeTraceSink::consume(const TraceEvent &e)
{
    const std::string pid = std::to_string(chromePid(e));
    const std::string ts = cyclesToUs(e.time);

    // Job execution renders as an async span from start to outcome.
    const bool opensSpan = e.type == TraceEventType::JobStarted;
    const bool closesSpan = e.type == TraceEventType::DeadlineHit ||
                            e.type == TraceEventType::DeadlineMiss ||
                            e.type == TraceEventType::JobTerminated;
    if (opensSpan || closesSpan) {
        entry("{\"name\":\"job-" + std::to_string(e.job) +
              "\",\"cat\":\"job\",\"ph\":\"" + (opensSpan ? 'b' : 'e') +
              std::string("\",\"id\":") + std::to_string(spanId(e)) +
              ",\"ts\":" + ts + ",\"pid\":" + pid + ",\"tid\":0}");
    }
    entry("{\"name\":\"" + std::string(traceEventName(e.type)) +
          "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts + ",\"pid\":" + pid +
          ",\"tid\":0,\"args\":" + argsJson(e) + "}");
}

void
ChromeTraceSink::close(const TraceMeta &meta)
{
    // Name the pid rows so Perfetto shows "node N" instead of numbers.
    entry("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"driver/GAC\"}}");
    for (int n = 0; n < meta.nodes; ++n)
        entry("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
              std::to_string(n + 1) + ",\"args\":{\"name\":\"node " +
              std::to_string(n) + "\"}}");
    os_ << "\n],\"otherData\":{\"seed\":" << meta.seed
        << ",\"threads\":" << meta.threads << ",\"events\":" << meta.events
        << ",\"drops\":" << meta.drops
        << ",\"wall_seconds\":" << num(meta.wallSeconds) << "}}\n";
    os_.flush();
}

} // namespace cmpqos
