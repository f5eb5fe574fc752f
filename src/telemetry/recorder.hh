/**
 * @file
 * The per-producer trace recorder: the only telemetry type the
 * instrumented layers talk to.
 *
 * Cost model, proven by bench/ext_telemetry_overhead:
 *  - runtime-disabled: active() is a null check plus one
 *    relaxed atomic load and a branch — callers guard event
 *    construction behind it, so a disabled run does no other work;
 *  - enabled: one struct copy into a lock-free SPSC ring; a full ring
 *    counts a drop instead of blocking the worker.
 */

#ifndef CMPQOS_TELEMETRY_RECORDER_HH
#define CMPQOS_TELEMETRY_RECORDER_HH

#include <atomic>

#include "telemetry/ring.hh"

namespace cmpqos
{

/**
 * One producer's event channel: a ring plus a drop counter, gated by
 * a shared runtime-enable flag owned by the TraceCollector.
 */
class TraceRecorder
{
  public:
    /**
     * @param node stamped into every event this recorder emits
     *        (-1 for the driver / global-admission producer)
     * @param capacity ring slots (rounded up to a power of two)
     * @param enabled the collector's runtime toggle (not owned)
     */
    TraceRecorder(NodeId node, std::size_t capacity,
                  const std::atomic<bool> *enabled)
        : ring_(capacity), node_(static_cast<std::int16_t>(node)),
          enabled_(enabled)
    {
    }

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /**
     * The hot-path guard. Callers check this BEFORE building an
     * event so a disabled run pays only the branch:
     *
     *   if (trace_ && trace_->active()) trace_->emit(...);
     */
    bool
    active() const
    {
        return enabled_->load(std::memory_order_relaxed);
    }

    /**
     * Record @p e (stamping the producer's node id). Never blocks:
     * a full ring counts a drop and returns.
     */
    void
    emit(TraceEvent e)
    {
        if (!active())
            return;
        e.node = node_;
        if (!ring_.tryPush(e))
            drops_.fetch_add(1, std::memory_order_relaxed);
    }

    NodeId node() const { return node_; }

    /** Events refused because the ring was full. */
    std::uint64_t
    drops() const
    {
        return drops_.load(std::memory_order_relaxed);
    }

    /** Consumer side (TraceCollector drain). */
    SpscEventRing &ring() { return ring_; }

  private:
    SpscEventRing ring_;
    std::int16_t node_;
    const std::atomic<bool> *enabled_;
    std::atomic<std::uint64_t> drops_{0};
};

} // namespace cmpqos

#endif // CMPQOS_TELEMETRY_RECORDER_HH
