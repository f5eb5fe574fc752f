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

std::string
argsJson(const TraceEvent &e)
{
    const TracePayloadKeys &k = payloadKeys(e.type);
    std::string s = "{";
    auto add = [&](const std::string &field) {
        if (s.size() > 1)
            s += ',';
        s += field;
    };
    if (k.a != nullptr)
        add("\"" + std::string(k.a) + "\":" + std::to_string(e.a));
    if (k.b != nullptr)
        add("\"" + std::string(k.b) + "\":" + std::to_string(e.b));
    if (k.x != nullptr)
        add("\"" + std::string(k.x) + "\":" + num(e.x));
    if (k.name != nullptr)
        add("\"" + std::string(k.name) + "\":\"" + escapeJson(e.name) +
            "\"");
    s += '}';
    return s;
}

} // namespace

std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

JsonlTraceSink::JsonlTraceSink(std::ostream &os) : os_(os) {}

std::string
JsonlTraceSink::formatLine(const TraceEvent &e)
{
    std::string line = "{\"ev\":\"";
    line += traceEventName(e.type);
    line += "\",\"t\":" + std::to_string(e.time);
    line += ",\"node\":" + std::to_string(e.node);
    line += ",\"job\":" + std::to_string(e.job);
    const TracePayloadKeys &k = payloadKeys(e.type);
    if (k.a != nullptr)
        line += ",\"" + std::string(k.a) + "\":" + std::to_string(e.a);
    if (k.b != nullptr)
        line += ",\"" + std::string(k.b) + "\":" + std::to_string(e.b);
    if (k.x != nullptr)
        line += ",\"" + std::string(k.x) + "\":" + num(e.x);
    if (k.name != nullptr)
        line += ",\"" + std::string(k.name) + "\":\"" +
                escapeJson(e.name) + "\"";
    line += '}';
    return line;
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
