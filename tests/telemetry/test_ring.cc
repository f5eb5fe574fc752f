/**
 * @file
 * Tests for the lock-free SPSC trace-event ring: FIFO order, refusal
 * (never blocking) when full, index wraparound, slots that take no
 * memory until written, and a genuinely concurrent producer/consumer
 * run for TSan.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <thread>

#include "telemetry/ring.hh"

namespace cmpqos
{
namespace
{

TraceEvent
event(std::uint64_t seq)
{
    TraceEvent e = traceEvent(TraceEventType::QuantumBegin, seq);
    e.a = seq;
    return e;
}

/** VmRSS of this process in KiB, or -1 when /proc cannot be read. */
long
residentKiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return -1;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CMPQOS_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CMPQOS_SHADOW_MEMORY 1
#endif
#endif

TEST(SpscEventRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(SpscEventRing(1).capacity(), 2u);
    EXPECT_EQ(SpscEventRing(2).capacity(), 2u);
    EXPECT_EQ(SpscEventRing(3).capacity(), 4u);
    EXPECT_EQ(SpscEventRing(100).capacity(), 128u);
    EXPECT_EQ(SpscEventRing(1024).capacity(), 1024u);
}

TEST(SpscEventRing, PreservesFifoOrder)
{
    SpscEventRing ring(16);
    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(ring.tryPush(event(i)));
    EXPECT_EQ(ring.size(), 10u);
    TraceEvent out;
    for (std::uint64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out.a, i);
    }
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(SpscEventRing, RefusesWhenFullInsteadOfBlocking)
{
    SpscEventRing ring(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.tryPush(event(i)));
    EXPECT_FALSE(ring.tryPush(event(99)));
    // Popping one frees exactly one slot.
    TraceEvent out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out.a, 0u);
    EXPECT_TRUE(ring.tryPush(event(4)));
    EXPECT_FALSE(ring.tryPush(event(99)));
}

TEST(SpscEventRing, WrapsAroundManyTimes)
{
    SpscEventRing ring(8);
    TraceEvent out;
    std::uint64_t next_pop = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(ring.tryPush(event(i)));
        if (i % 3 == 2) { // drain in bursts to exercise the indices
            while (ring.tryPop(out))
                EXPECT_EQ(out.a, next_pop++);
        }
    }
    while (ring.tryPop(out))
        EXPECT_EQ(out.a, next_pop++);
    EXPECT_EQ(next_pop, 1000u);
}

TEST(SpscEventRing, UnwrittenSlotsStayNonResident)
{
#ifdef CMPQOS_SHADOW_MEMORY
    GTEST_SKIP() << "a sanitizer's shadow memory is resident, so VmRSS "
                    "does not follow the slots written";
#endif
    const long before = residentKiB();
    if (before < 0)
        GTEST_SKIP() << "no VmRSS line in /proc/self/status";

    // 2^20 slots are 88 MiB of address space; only the 1000 slots
    // written below may become resident.
    SpscEventRing ring(std::size_t{1} << 20);
    const long ring_kib =
        static_cast<long>(ring.capacity() * sizeof(TraceEvent) / 1024);
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(ring.tryPush(event(i)));
    const long grown = residentKiB() - before;
    EXPECT_LT(grown, ring_kib / 4)
        << "a " << ring_kib << " KiB ring holding 1000 events made "
        << grown << " KiB resident";

    TraceEvent out;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out.a, i);
    }
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(SpscEventRing, ConcurrentProducerConsumer)
{
    // One producer thread racing one consumer thread: under TSan this
    // validates the acquire/release pairing; everywhere it validates
    // that no event is lost, duplicated, or reordered.
    constexpr std::uint64_t kEvents = 50'000;
    SpscEventRing ring(64);
    std::uint64_t received = 0;
    bool ordered = true;

    std::thread consumer([&]() {
        TraceEvent out;
        while (received < kEvents) {
            if (ring.tryPop(out)) {
                ordered = ordered && out.a == received;
                ++received;
            }
        }
    });
    for (std::uint64_t i = 0; i < kEvents;) {
        if (ring.tryPush(event(i)))
            ++i;
    }
    consumer.join();
    EXPECT_EQ(received, kEvents);
    EXPECT_TRUE(ordered);
}

} // namespace
} // namespace cmpqos
