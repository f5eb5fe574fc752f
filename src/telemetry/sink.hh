/**
 * @file
 * Trace sinks: where drained events go.
 *
 * Two concrete exporters are provided. JsonlTraceSink writes one
 * self-describing JSON object per line (payload fields named per
 * event type), ending with a single `"ev":"meta"` line that carries
 * ALL host-side values (wall-clock seconds, worker-thread count, drop
 * totals). Event lines contain only simulation-determined fields,
 * which is what makes a captured event stream byte-identical across
 * worker-thread counts. The sink also owns reading the format back:
 * parseLine and parseMetaLine invert formatLine and the meta trailer
 * over the same payloadKeys table, and tools/telemetry_dump loads
 * captures through them.
 *
 * ChromeTraceSink writes the Chrome trace-event JSON object format —
 * open the file in chrome://tracing or https://ui.perfetto.dev. Each
 * node maps to a pid row; job executions render as async spans and
 * everything else as instant events. Timestamps convert cycles to
 * microseconds at the simulated 2GHz clock.
 *
 * Both exporters escape quotes, backslashes, and control characters
 * in every string they emit (benchmark names, reasons) — hostile job
 * names must not corrupt the stream.
 */

#ifndef CMPQOS_TELEMETRY_SINK_HH
#define CMPQOS_TELEMETRY_SINK_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/json.hh"
#include "telemetry/event.hh"

namespace cmpqos
{

/** Host-side run summary passed to sinks when a capture closes. */
struct TraceMeta
{
    std::uint64_t seed = 0;
    int nodes = 0;
    unsigned threads = 0;
    /** Events refused on full rings, summed over producers. */
    std::uint64_t drops = 0;
    /** Events delivered to sinks. */
    std::uint64_t events = 0;
    /** Host-side wall-clock time (excluded from event lines). */
    double wallSeconds = 0.0;
};

/**
 * Consumer interface fed by TraceCollector::drain().
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One drained event, in deterministic capture order. */
    virtual void consume(const TraceEvent &e) = 0;

    /** Capture finished; write trailers. Called exactly once. */
    virtual void close(const TraceMeta &meta) = 0;
};

/**
 * One JSON object per line; see the file comment for the contract.
 */
class JsonlTraceSink : public TraceSink
{
  public:
    /** Writes to @p os (not owned; must outlive the sink). */
    explicit JsonlTraceSink(std::ostream &os);

    void consume(const TraceEvent &e) override;
    void close(const TraceMeta &meta) override;

    /** Format one event as a JSONL line (no trailing newline). */
    static std::string formatLine(const TraceEvent &e);

    /**
     * The inverse of formatLine: parse one event line into @p out.
     * False, leaving @p out untouched, unless the line is one JSON
     * object naming a known event and carrying every key formatLine
     * writes for it, each within its field's range. A line whose `x`
     * is not finite (formatLine would write `nan` or `inf`) is not
     * JSON and so is refused too.
     */
    static bool parseLine(std::string_view line, TraceEvent &out);

    /** The inverse of close()'s trailer: parse a `"ev":"meta"` line
     *  into @p out; false, leaving @p out untouched, otherwise. */
    static bool parseMetaLine(std::string_view line, TraceMeta &out);

  private:
    std::ostream &os_;
};

/**
 * Chrome trace-event JSON ("object format" with a traceEvents array).
 */
class ChromeTraceSink : public TraceSink
{
  public:
    /** Writes to @p os (not owned; must outlive the sink). */
    explicit ChromeTraceSink(std::ostream &os);

    void consume(const TraceEvent &e) override;
    void close(const TraceMeta &meta) override;

  private:
    void entry(const std::string &body);

    std::ostream &os_;
    bool first_ = true;
};

} // namespace cmpqos

#endif // CMPQOS_TELEMETRY_SINK_HH
