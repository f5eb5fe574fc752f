/**
 * @file
 * Fixed-capacity single-producer / single-consumer ring buffer for
 * trace events.
 *
 * The producer side is the hot path (a worker thread advancing a node
 * co-simulation); it must never allocate, lock, or wait. tryPush is a
 * bounds check plus a struct copy plus one release store; when the
 * ring is full the event is simply refused and the caller counts a
 * drop. The consumer side is the TraceSink drain running at quantum
 * barriers on the driver thread.
 *
 * "Single producer" means one thread at a time with a happens-before
 * edge at every ownership handoff — exactly what the cluster engine's
 * barrier-stepped loop guarantees for each node's worker (see
 * node_worker.hh). The acquire/release pairs below make the ring safe
 * even when producer and consumer genuinely run concurrently, which
 * the telemetry tests exercise under TSan.
 */

#ifndef CMPQOS_TELEMETRY_RING_HH
#define CMPQOS_TELEMETRY_RING_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "telemetry/event.hh"

namespace cmpqos
{

/**
 * Lock-free SPSC ring of TraceEvents.
 */
class SpscEventRing
{
  public:
    /** @param capacity slots; rounded up to a power of two, >= 2. */
    explicit SpscEventRing(std::size_t capacity)
    {
        std::size_t cap = 2;
        while (cap < capacity)
            cap <<= 1;
        slots_ = std::make_unique_for_overwrite<Slot[]>(cap);
        mask_ = cap - 1;
    }

    std::size_t capacity() const { return mask_ + 1; }

    /**
     * Producer: append @p e unless the ring is full.
     * @return false (event refused, caller counts a drop) when full.
     */
    bool
    tryPush(const TraceEvent &e)
    {
        // SPSC contract: exactly one producer thread at a time (the
        // node's current owner under the barrier handoff).
        producer_.grant();
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        const std::uint64_t head = head_.load(std::memory_order_acquire);
        if (tail - head >= capacity())
            return false;
        std::memcpy(&slots_[tail & mask_], &e, sizeof e);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /**
     * Consumer: pop the oldest event into @p out.
     * @return false when the ring is empty.
     */
    bool
    tryPop(TraceEvent &out)
    {
        // SPSC contract: exactly one consumer thread (the collector's
        // barrier-time drain on the driver thread).
        consumer_.grant();
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        const std::uint64_t tail = tail_.load(std::memory_order_acquire);
        if (head == tail)
            return false;
        // TraceEvent is trivially copyable (static-asserted in
        // event.hh); the cast only tells the compiler so.
        std::memcpy(static_cast<void *>(&out), &slots_[head & mask_],
                    sizeof out);
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /** Events currently buffered (approximate under concurrency). */
    std::size_t
    size() const
    {
        const std::uint64_t head = head_.load(std::memory_order_acquire);
        const std::uint64_t tail = tail_.load(std::memory_order_acquire);
        return static_cast<std::size_t>(tail - head);
    }

  private:
    /**
     * Endpoint roles. The slot array itself is handed between the
     * endpoints by the acquire/release cursor protocol (which the
     * static analysis cannot model), so the roles enforce only the
     * calling discipline: tryPush is producer-side, tryPop is
     * consumer-side, and each side is single-threaded.
     */
    OwnerRole producer_;
    OwnerRole consumer_;

    /**
     * Raw storage for one event. It has no initialisers, so allocating
     * the slot array writes nothing: a slot's page becomes resident
     * only when the producer first writes it, and a ring's memory
     * follows the events it has held rather than its capacity.
     */
    struct Slot
    {
        alignas(TraceEvent) unsigned char bytes[sizeof(TraceEvent)];
    };

    std::unique_ptr<Slot[]> slots_;
    std::size_t mask_ = 0;
    /** Consumer cursor (padded away from the producer's). */
    alignas(64) std::atomic<std::uint64_t> head_{0};
    /** Producer cursor. */
    alignas(64) std::atomic<std::uint64_t> tail_{0};
};

} // namespace cmpqos

#endif // CMPQOS_TELEMETRY_RING_HH
