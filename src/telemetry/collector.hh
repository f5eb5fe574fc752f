/**
 * @file
 * The trace collector: owns one SPSC ring per producer plus the
 * runtime enable toggle, and drains the rings into attached sinks at
 * quantum barriers.
 *
 * Producer convention (ClusterEngine's): producer 0 is the driver /
 * global-admission thread, producer i+1 is node i. drain() always
 * empties rings in producer order, so for a fixed seed the delivered
 * event stream is identical at any worker thread count — each node's
 * events are deterministic and internally ordered, and barrier-
 * stepping keeps every drain point aligned with the same virtual-time
 * boundary.
 */

#ifndef CMPQOS_TELEMETRY_COLLECTOR_HH
#define CMPQOS_TELEMETRY_COLLECTOR_HH

#include <atomic>
#include <memory>
#include <vector>

#include "common/annotations.hh"
#include "telemetry/recorder.hh"
#include "telemetry/sink.hh"

namespace cmpqos
{

/** Collector configuration. */
struct TelemetryConfig
{
    /** Ring slots per producer (rounded up to a power of two).
     *  88-byte events: the default buffers ~2.8MB per producer. */
    std::size_t ringCapacity = 1u << 15;
    /** Initial runtime-toggle state. */
    bool enabled = true;
};

/**
 * Per-run telemetry hub. Not copyable; recorders point back into it.
 */
class TraceCollector
{
  public:
    /**
     * @param producers ring count; use nodes + 1 (producer 0 is the
     *        driver / global-admission side).
     */
    explicit TraceCollector(int producers,
                            const TelemetryConfig &config =
                                TelemetryConfig());

    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    int producers() const { return static_cast<int>(recorders_.size()); }

    /** The driver / global-admission recorder (producer 0). */
    TraceRecorder *driverRecorder() { return recorders_[0].get(); }

    /** Node @p n's recorder (producer n + 1). */
    TraceRecorder *nodeRecorder(NodeId n);

    /** Runtime toggle: a relaxed-atomic branch on the hot path. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Attach @p sink (not owned) to receive drained events. */
    void addSink(TraceSink *sink);

    /**
     * Drain every ring (producer order) into the sinks.
     * @return events delivered by this call.
     */
    std::size_t drain();

    /**
     * Deliver an externally-captured event batch straight to the
     * sinks (federation: shard controllers drain their own rings at
     * the quantum barrier and ship the batch to the coordinator,
     * which replays it here in shard order — preserving the exact
     * producer-order stream a single-process run would deliver).
     * Driver/consumer thread only, at a quantum barrier.
     */
    void deliverExternal(const TraceEvent *events, std::size_t count);

    /** Fold ring-full drop counts reported by external (shard-side)
     *  collectors into this capture's meta totals. */
    void
    noteExternalDrops(std::uint64_t drops)
    {
        consumer_.grant();
        externalDrops_ += drops;
    }

    /**
     * Final drain + close every sink with host-side metadata.
     * @param seed @param threads @param wall_seconds run identity
     *        for the meta record (never on event lines).
     */
    void finish(std::uint64_t seed, unsigned threads,
                double wall_seconds);

    /** Events refused on full rings, summed over producers. */
    std::uint64_t totalDrops() const;

    /** Events delivered to sinks so far. */
    std::uint64_t
    eventsDelivered() const
    {
        consumer_.grant();
        return delivered_;
    }

  private:
    /**
     * The consumer role: sinks and delivery accounting belong to the
     * one thread that drains at quantum barriers (the driver). The
     * producer side never touches these — it only sees its own
     * recorder's SPSC ring.
     */
    OwnerRole consumer_;

    std::atomic<bool> enabled_{true};
    std::vector<std::unique_ptr<TraceRecorder>> recorders_;
    std::vector<TraceSink *> sinks_ CMPQOS_GUARDED_BY(consumer_);
    std::uint64_t delivered_ CMPQOS_GUARDED_BY(consumer_) = 0;
    std::uint64_t externalDrops_ CMPQOS_GUARDED_BY(consumer_) = 0;
    bool finished_ CMPQOS_GUARDED_BY(consumer_) = false;
};

} // namespace cmpqos

#endif // CMPQOS_TELEMETRY_COLLECTOR_HH
