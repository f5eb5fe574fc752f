/**
 * @file
 * The layer replay: a workload's own arrivals and job mix fed through
 * each layer's public entry points, one span per call (or per chunk
 * of calls where a single call is too short to time), so a per-layer
 * number moves only when that layer's code does.
 */

#include <algorithm>
#include <memory>

#include "cluster/metrics.hh"
#include "cluster/node_worker.hh"
#include "federation/message.hh"
#include "federation/shard_controller.hh"
#include "federation/transport.hh"
#include "service/journal.hh"
#include "service/protocol.hh"
#include "workloads.hh"
#include "workload/generator.hh"

using namespace cmpqos;

namespace perfbench
{

namespace
{

/** Generators built and streams recorded (8 MiB of sampler each). */
constexpr std::size_t kStreamJobs = 32;
/** Accesses recorded per stream. */
constexpr std::uint64_t kStreamAccesses = 40'000;
/** L2 accesses replayed per span before switching streams. */
constexpr std::size_t kL2Chunk = 1000;
/** Arrivals the node replay places (bounds its time and memory). */
constexpr std::size_t kNodeArrivals = 250;

struct Stream
{
    QosTier tier = QosTier::Gold;
    unsigned ways = 0;
    std::vector<Addr> addr;
    std::vector<char> write;
    std::vector<char> hit;
};

std::uint64_t
streamSeed(std::uint64_t seed, std::size_t job)
{
    return (seed + 0x51ed27ULL) * 0x9e3779b97f4a7c15ULL + job;
}

double
totalDuration(const SpanLog &spans, const char *name)
{
    double sum = 0.0;
    for (double d : spans.durations(name))
        sum += d;
    return sum;
}

double
medianUs(const SpanLog &spans, const char *name)
{
    return percentile(spans.durations(name), 0.5) * 1e6;
}

/** workload.*: build generators, run them, keep their streams. */
std::vector<Stream>
replayGenerators(const std::vector<ClusterArrival> &arrivals,
                 std::uint64_t seed, SpanLog &spans, RunReport &r)
{
    const std::uint32_t group =
        spans.open("replay.workload", SpanLog::kRoot, 0);
    const std::size_t jobs = std::min(kStreamJobs, arrivals.size());
    std::vector<std::unique_ptr<AccessGenerator>> gens;
    const double rss_before = currentRssKb();
    for (std::size_t j = 0; j < jobs; ++j) {
        const double t0 = hostSeconds();
        gens.push_back(std::make_unique<AccessGenerator>(
            BenchmarkRegistry::get(arrivals[j].request.benchmark),
            streamSeed(seed, j), jobAddressBase(static_cast<JobId>(j))));
        spans.add("workload.setup", group, j, t0, hostSeconds());
    }
    const double rss_after = currentRssKb();

    const InstCount chunk = CmpConfig().chunkInstructions;
    std::vector<Stream> streams(jobs);
    std::uint64_t accesses = 0;
    for (std::size_t j = 0; j < jobs; ++j) {
        Stream &s = streams[j];
        s.tier = arrivals[j].tier;
        s.ways = arrivals[j].request.ways;
        s.addr.reserve(kStreamAccesses + 1024);
        s.write.reserve(kStreamAccesses + 1024);
        InstCount done = 0;
        while (s.addr.size() < kStreamAccesses &&
               done < arrivals[j].instructions) {
            const double t0 = hostSeconds();
            gens[j]->run(chunk, [&s](Addr a, bool w) {
                s.addr.push_back(a);
                s.write.push_back(w ? 1 : 0);
            });
            spans.add("workload.gen", group, j, t0, hostSeconds());
            done += chunk;
        }
        accesses += s.addr.size();
        r.check(gens[j]->emitted() == s.addr.size(),
                "generator emitted count disagrees with its stream");
    }
    gens.clear();
    spans.close(group);

    r.metrics
        .num("workload.setup_us.p50", medianUs(spans, "workload.setup"))
        .num("workload.rss_kb_per_job",
             (rss_after - rss_before) / static_cast<double>(jobs))
        .num("workload.gen_ns_per_access",
             totalDuration(spans, "workload.gen") * 1e9 /
                 static_cast<double>(accesses))
        .count("workload.accesses", accesses);
    return streams;
}

/** cache.*: the recorded streams through a partitioned L2 and the
 *  duplicate tags an Elastic job keeps. */
void
replayCache(std::vector<Stream> &streams, SpanLog &spans, RunReport &r)
{
    const std::uint32_t group =
        spans.open("replay.cache", SpanLog::kRoot, 0);
    const CmpConfig cmp;
    PartitionedCache l2(cmp.l2, cmp.numCores, cmp.scheme);
    // Two reserved cores at the reserving tiers' way target (the most
    // the 16-way L2 can hold at 7 ways each); Bronze streams share
    // the other two as opportunistic cores.
    unsigned reserved_ways = 1;
    for (const Stream &s : streams)
        if (s.tier != QosTier::Bronze)
            reserved_ways = std::max(reserved_ways, s.ways);
    reserved_ways = std::min(reserved_ways, cmp.l2.assoc / 2);
    for (CoreId c = 0; c < cmp.numCores; ++c) {
        const bool reserved = c < 2;
        l2.setCoreClass(c, reserved ? CoreClass::Reserved
                                    : CoreClass::Opportunistic);
        l2.setTargetWays(c, reserved ? reserved_ways : 0);
    }
    std::vector<CoreId> core(streams.size());
    for (std::size_t j = 0; j < streams.size(); ++j) {
        const CoreId base = streams[j].tier == QosTier::Bronze ? 2 : 0;
        core[j] = base + static_cast<CoreId>(j % 2);
        streams[j].hit.reserve(streams[j].addr.size());
    }

    // Interleave the streams chunk by chunk, as co-scheduled jobs do.
    std::vector<std::size_t> pos(streams.size(), 0);
    bool more = true;
    std::uint64_t accesses = 0;
    while (more) {
        more = false;
        for (std::size_t j = 0; j < streams.size(); ++j) {
            Stream &s = streams[j];
            const std::size_t end =
                std::min(s.addr.size(), pos[j] + kL2Chunk);
            if (pos[j] >= end)
                continue;
            more = true;
            const double t0 = hostSeconds();
            for (std::size_t k = pos[j]; k < end; ++k)
                s.hit.push_back(
                    l2.access(core[j], s.addr[k], s.write[k] != 0).hit
                        ? 1
                        : 0);
            spans.add("cache.l2", group, j, t0, hostSeconds());
            accesses += end - pos[j];
            pos[j] = end;
        }
    }

    std::uint64_t observed = 0;
    for (std::size_t j = 0; j < streams.size(); ++j) {
        const Stream &s = streams[j];
        DuplicateTagArray dup(cmp.l2, std::max(1u, s.ways));
        for (std::size_t k = 0; k < s.addr.size(); k += kL2Chunk) {
            const std::size_t end = std::min(s.addr.size(), k + kL2Chunk);
            const double t0 = hostSeconds();
            for (std::size_t i = k; i < end; ++i)
                dup.observe(s.addr[i], s.hit[i] != 0);
            spans.add("cache.dup", group, j, t0, hostSeconds());
            observed += end - k;
        }
    }
    spans.close(group);

    r.check(l2.totalAccesses() == accesses,
            "L2 access count disagrees with the replayed streams");
    r.metrics
        .num("cache.l2_ns_per_access", totalDuration(spans, "cache.l2") *
                                           1e9 /
                                           static_cast<double>(accesses))
        .num("cache.dup_ns_per_observe",
             totalDuration(spans, "cache.dup") * 1e9 /
                 static_cast<double>(observed))
        .num("cache.l2_miss_ratio", static_cast<double>(l2.totalMisses()) /
                                        static_cast<double>(accesses));
}

/** A node slice the replay places arrivals on, least-loaded first. */
struct ReplayCluster
{
    std::vector<std::unique_ptr<NodeWorker>> nodes;
    /** Keeps every violation so they can be told apart by kind. */
    InvariantChecker checker{std::size_t{1} << 20};
    Cycle now = 0;

    ReplayCluster(const ClusterConfig &cc, std::uint64_t seed)
    {
        for (int n = 0; n < cc.nodes; ++n) {
            nodes.push_back(std::make_unique<NodeWorker>(
                n, cc.node, seed * 1000003ULL + static_cast<unsigned>(n)));
            // Same controller setting as the workload: where it is off,
            // control.step_us times the disabled step the engine pays.
            if (cc.control.enabled)
                nodes.back()->enableController(cc.control);
        }
    }
};

/** sim.*, qos.*, control.*, fault.* and federation.*: place the
 *  arrivals on real node workers, one span per entry-point call. */
void
replayNodes(Workload w, const std::vector<ClusterArrival> &arrivals,
            std::uint64_t seed, SpanLog &spans, RunReport &r)
{
    const std::uint32_t group =
        spans.open("replay.nodes", SpanLog::kRoot, 0);
    const ClusterConfig cc = workloadClusterConfig(w, seed);
    auto links = makeInprocLinkPair();
    Link &coordinator = *links.first;
    Link &shard = *links.second;

    auto cluster = std::make_unique<ReplayCluster>(cc, seed);
    // As in the workloads, a late Strict/Elastic job is a deadline miss
    // (the replay places arrivals its own way, so it may see others);
    // any other violation is a broken invariant.
    const auto check_oracle = [&r](const ReplayCluster &c) {
        for (const InvariantViolation &v : c.checker.violations())
            r.check(v.invariant == "deadline",
                    "the invariant oracle flagged the replay: " +
                        v.format());
    };
    double advance_seconds = 0.0;
    InstCount retired = 0;
    std::uint64_t fed_seq = 0;

    const auto advance = [&](Cycle to) {
        for (auto &node : cluster->nodes) {
            const InstCount before =
                MetricsExporter::collectNode(*node).instructions;
            double t0 = hostSeconds();
            node->controllerStep();
            spans.add("control.step", group, node->id(), t0,
                      hostSeconds());
            t0 = hostSeconds();
            node->advanceTo(to);
            const double t1 = hostSeconds();
            spans.add("sim.advance", group, node->id(), t0, t1);
            advance_seconds += t1 - t0;
            retired += MetricsExporter::collectNode(*node).instructions -
                       before;
            t0 = hostSeconds();
            cluster->checker.checkNode(node->id(), node->framework(),
                                       node->virtualNow());
            spans.add("fault.check", group, node->id(), t0,
                      hostSeconds());
        }
        cluster->now = to;
    };

    const std::size_t n = std::min(kNodeArrivals, arrivals.size());
    for (std::size_t i = 0; i < n; ++i) {
        const ClusterArrival &a = arrivals[i];
        if (w == Workload::QosdEpochs && i > 0 &&
            i % qosdEpochSubmits() == 0) {
            // A drained qosd epoch starts from fresh nodes at time 0.
            check_oracle(*cluster);
            cluster.reset();
            cluster = std::make_unique<ReplayCluster>(cc, seed + i);
        }
        while (a.time >= cluster->now + cc.quantum)
            advance(cluster->now + cc.quantum);

        FedProbeReply reply;
        NodeWorker *best = nullptr;
        for (auto &node : cluster->nodes) {
            const double t0 = hostSeconds();
            const AdmissionDecision d = node->probe(a.request,
                                                    a.instructions);
            spans.add("qos.probe", group, i, t0, hostSeconds());
            WireProbe p;
            p.node = node->id();
            p.alive = 1;
            p.accepted = d.accepted ? 1 : 0;
            p.slotStart = d.slotStart;
            p.load = node->inFlight();
            reply.probes.push_back(p);
            if (d.accepted &&
                (best == nullptr || node->inFlight() < best->inFlight()))
                best = node.get();
        }

        // The probe round as a federated coordinator would ship it.
        const FedMessage probe =
            FedProbe{toWireRequest(a.request, a.instructions)};
        double t0 = hostSeconds();
        const std::string probe_bytes = encodeFedPayload(++fed_seq, probe);
        const std::string reply_bytes = encodeFedPayload(fed_seq, reply);
        std::uint64_t seq = 0;
        FedMessage decoded;
        std::string err;
        bool ok = decodeFedPayload(probe_bytes, seq, decoded, err) &&
                  decodeFedPayload(reply_bytes, seq, decoded, err);
        spans.add("federation.codec", group, i, t0, hostSeconds());
        r.check(ok && std::get<FedProbeReply>(decoded).probes.size() ==
                          reply.probes.size(),
                "federation payload did not round-trip: " + err);
        std::string got_probe;
        std::string got_reply;
        t0 = hostSeconds();
        ok = coordinator.send(probe_bytes) && shard.recv(got_probe) &&
             shard.send(reply_bytes) && coordinator.recv(got_reply);
        spans.add("federation.rtt", group, i, t0, hostSeconds());
        r.check(ok && got_probe == probe_bytes && got_reply == reply_bytes,
                "in-process link lost or altered a payload");

        if (best != nullptr) {
            t0 = hostSeconds();
            Job *job = best->submit(a.request, a.instructions);
            spans.add("qos.submit", group, i, t0, hostSeconds());
            r.check(job != nullptr, "a node refused a job its probe "
                                    "accepted");
        }
    }
    advance(cluster->now + cc.quantum);
    check_oracle(*cluster);
    spans.close(group);

    r.metrics.num("sim.ns_per_instr",
                  retired == 0 ? 0.0
                               : advance_seconds * 1e9 /
                                     static_cast<double>(retired))
        .num("qos.probe_us", medianUs(spans, "qos.probe"))
        .num("qos.submit_us", medianUs(spans, "qos.submit"))
        .num("control.step_us", medianUs(spans, "control.step"))
        .num("fault.check_us", medianUs(spans, "fault.check"))
        .num("federation.rtt_us", medianUs(spans, "federation.rtt"))
        .num("federation.codec_us", medianUs(spans, "federation.codec"));
}

/** service.*: the journal and wire codec on the workload's submits. */
void
replayService(Workload w, const std::vector<ClusterArrival> &arrivals,
              std::uint64_t seed, const std::string &scratch,
              SpanLog &spans, RunReport &r)
{
    const std::uint32_t group =
        spans.open("replay.service", SpanLog::kRoot, 0);
    EpochConfig epoch;
    const ClusterConfig cc = workloadClusterConfig(w, seed);
    epoch.nodes = cc.nodes;
    epoch.quantum = cc.quantum;
    epoch.seed = seed;
    {
        SubmissionJournal journal(scratch + "/replay-journal.trace", epoch,
                                  0);
        Cycle last = 0;
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            const ClusterArrival &a = arrivals[i];
            last = std::max(last, a.time);
            const double t0 = hostSeconds();
            journal.append(last, a.request.benchmark, a.tier,
                           a.instructions);
            spans.add("service.journal", group, i, t0, hostSeconds());
        }
        journal.close();
    }

    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const ClusterArrival &a = arrivals[i];
        Submit submit;
        submit.ticket = static_cast<std::uint32_t>(i + 1);
        submit.tier = static_cast<std::uint8_t>(a.tier);
        submit.instructions = a.instructions;
        submit.time = a.time;
        submit.benchmark = a.request.benchmark;
        SubmitReply reply;
        reply.ticket = submit.ticket;
        reply.seq = i;
        reply.outcome = static_cast<std::uint8_t>(AdmitOutcome::Accepted);
        reply.node = static_cast<std::int32_t>(i % 8);
        reply.time = a.time;
        reply.slotStart = a.time;
        reply.deadlineFactor = a.request.deadlineFactor;

        const double t0 = hostSeconds();
        const std::string in = encodeMessage(submit, WireMode::Binary);
        const std::string out = encodeMessage(reply, WireMode::Binary);
        const DecodeResult din = decodeFrame(in, WireMode::Binary);
        const DecodeResult dout = decodeFrame(out, WireMode::Binary);
        spans.add("service.codec", group, i, t0, hostSeconds());
        const bool ok =
            din.status == DecodeResult::Status::Ok &&
            dout.status == DecodeResult::Status::Ok &&
            std::get<Submit>(din.message).ticket == submit.ticket &&
            std::get<SubmitReply>(dout.message).seq == reply.seq;
        r.check(ok, "Submit / SubmitReply did not round-trip");
    }
    spans.close(group);

    r.metrics.num("service.journal_us", medianUs(spans, "service.journal"))
        .num("service.codec_us", medianUs(spans, "service.codec"));
}

} // namespace

RunReport
runReplay(Workload w, std::uint64_t seed, SpanLog &spans,
          const std::string &scratch)
{
    RunReport r;
    const std::vector<ClusterArrival> arrivals = workloadArrivals(w, seed);
    warmCalibration(workloadMix(w));
    std::vector<Stream> streams = replayGenerators(arrivals, seed, spans, r);
    replayCache(streams, spans, r);
    streams.clear();
    replayNodes(w, arrivals, seed, spans, r);
    replayService(w, arrivals, seed, scratch, spans, r);
    return r;
}

} // namespace perfbench
