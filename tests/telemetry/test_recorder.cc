/**
 * @file
 * Tests for TraceRecorder (runtime toggle, node stamping, drop
 * accounting) and TraceCollector (producer ordering, drain, finish).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "telemetry/collector.hh"

namespace cmpqos
{
namespace
{

/** Sink that remembers every event it is fed. */
struct RecordingSink : public TraceSink
{
    std::vector<TraceEvent> events;
    TraceMeta meta;
    int closes = 0;

    void consume(const TraceEvent &e) override { events.push_back(e); }
    void
    close(const TraceMeta &m) override
    {
        meta = m;
        ++closes;
    }
};

TraceEvent
event(Cycle t, std::uint64_t a = 0)
{
    TraceEvent e = traceEvent(TraceEventType::QuantumBegin, t);
    e.a = a;
    return e;
}

TEST(TraceRecorder, ActiveTracksRuntimeToggle)
{
    std::atomic<bool> on{false};
    TraceRecorder rec(3, 8, &on);
    EXPECT_FALSE(rec.active());
    rec.emit(event(1));
    EXPECT_EQ(rec.ring().size(), 0u); // silently refused, no drop
    EXPECT_EQ(rec.drops(), 0u);

    on.store(true);
    EXPECT_TRUE(rec.active());
    rec.emit(event(2));
    EXPECT_EQ(rec.ring().size(), 1u);
}

TEST(TraceRecorder, StampsProducerNode)
{
    std::atomic<bool> on{true};
    TraceRecorder rec(5, 8, &on);
    TraceEvent e = event(7);
    e.node = -1; // recorder overrides whatever the caller left here
    rec.emit(e);
    TraceEvent out;
    ASSERT_TRUE(rec.ring().tryPop(out));
    EXPECT_EQ(out.node, 5);
    EXPECT_EQ(out.time, 7u);
}

TEST(TraceRecorder, CountsDropsOnFullRing)
{
    std::atomic<bool> on{true};
    TraceRecorder rec(0, 4, &on);
    for (int i = 0; i < 10; ++i)
        rec.emit(event(i));
    EXPECT_EQ(rec.ring().size(), 4u);
    EXPECT_EQ(rec.drops(), 6u);
}

TEST(TraceCollector, DrainsProducersInOrder)
{
    TraceCollector collector(3); // driver + 2 nodes
    RecordingSink sink;
    collector.addSink(&sink);

    // Interleave emission across producers; drain must deliver
    // producer 0 (driver) first, then node 0, then node 1.
    collector.nodeRecorder(1)->emit(event(30));
    collector.driverRecorder()->emit(event(10));
    collector.nodeRecorder(0)->emit(event(20));
    collector.nodeRecorder(0)->emit(event(21));
    EXPECT_EQ(collector.drain(), 4u);

    ASSERT_EQ(sink.events.size(), 4u);
    EXPECT_EQ(sink.events[0].node, -1);
    EXPECT_EQ(sink.events[0].time, 10u);
    EXPECT_EQ(sink.events[1].node, 0);
    EXPECT_EQ(sink.events[1].time, 20u);
    EXPECT_EQ(sink.events[2].time, 21u);
    EXPECT_EQ(sink.events[3].node, 1);
    EXPECT_EQ(collector.eventsDelivered(), 4u);
}

TEST(TraceCollector, RuntimeDisableSilencesAllProducers)
{
    TraceCollector collector(2);
    RecordingSink sink;
    collector.addSink(&sink);
    collector.setEnabled(false);
    collector.driverRecorder()->emit(event(1));
    collector.nodeRecorder(0)->emit(event(2));
    EXPECT_EQ(collector.drain(), 0u);
    EXPECT_TRUE(sink.events.empty());

    collector.setEnabled(true);
    collector.nodeRecorder(0)->emit(event(3));
    EXPECT_EQ(collector.drain(), 1u);
}

TEST(TraceCollector, FinishDrainsAndClosesOnce)
{
    TelemetryConfig config;
    config.ringCapacity = 4;
    TraceCollector collector(2, config);
    RecordingSink sink;
    collector.addSink(&sink);
    for (int i = 0; i < 8; ++i) // overflow: 4 delivered, 4 dropped
        collector.nodeRecorder(0)->emit(event(i));
    collector.finish(42, 3, 1.5);

    EXPECT_EQ(sink.closes, 1);
    EXPECT_EQ(sink.events.size(), 4u);
    EXPECT_EQ(sink.meta.seed, 42u);
    EXPECT_EQ(sink.meta.nodes, 1);
    EXPECT_EQ(sink.meta.threads, 3u);
    EXPECT_EQ(sink.meta.drops, 4u);
    EXPECT_EQ(sink.meta.events, 4u);
    EXPECT_DOUBLE_EQ(sink.meta.wallSeconds, 1.5);
    EXPECT_EQ(collector.totalDrops(), 4u);
}

} // namespace
} // namespace cmpqos
