/**
 * @file
 * In-memory spans for the traced run. Each span names the layer call
 * it times, points at the span that caused it and carries the
 * per-arrival or per-submit id it belongs to. Spans are appended
 * during the run and written out once, as a Chrome trace-event file
 * that Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Seconds on the host's monotonic clock. */
double hostSeconds();

class SpanLog
{
  public:
    static constexpr std::uint32_t kRoot = UINT32_MAX;

    struct Span
    {
        /** Layer call, e.g. "cluster.place" (static storage). */
        const char *name = "";
        /** Index of the causing span, or kRoot. */
        std::uint32_t parent = kRoot;
        /** Arrival seq, submit ticket, quantum ordinal, ... */
        std::uint64_t id = 0;
        /** hostSeconds() at start and end. */
        double start = 0.0;
        double end = 0.0;

        double duration() const { return end - start; }
    };

    /** Open a span starting now; close() it with the returned index. */
    std::uint32_t open(const char *name, std::uint32_t parent,
                       std::uint64_t id);
    void close(std::uint32_t index);

    /** Append a span measured elsewhere. */
    std::uint32_t add(const char *name, std::uint32_t parent,
                      std::uint64_t id, double start, double end);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus the part of its
     * interval covered by the union of its children's intervals
     * (children clipped to the parent; overlapping children counted
     * once).
     */
    std::vector<double> selfTimes() const;

    /** Durations of every span called @p name, in record order. */
    std::vector<double> durations(std::string_view name) const;

    /** Sum of self times of the spans called @p name. */
    double selfTotal(std::string_view name) const;

    /**
     * Write the spans as Chrome trace-event JSON ("X" events, times in
     * microseconds from the first span; args carry id and parent).
     * @return false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &process_name) const;

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
