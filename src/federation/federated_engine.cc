#include "federated_engine.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "control/config.hh"
#include "control/controller.hh"
#include "federation/shard_controller.hh"
#include "federation/transport.hh"

namespace cmpqos
{

const char *
fedTransportName(FedTransport t)
{
    switch (t) {
      case FedTransport::Inproc:
        return "inproc";
      case FedTransport::Uds:
        return "uds";
    }
    return "?";
}

bool
parseFedTransport(const std::string &name, FedTransport &out)
{
    if (name == "inproc") {
        out = FedTransport::Inproc;
        return true;
    }
    if (name == "uds") {
        out = FedTransport::Uds;
        return true;
    }
    return false;
}

namespace
{

/**
 * The node-backend seam over shard links. Probe rounds and barriers
 * send to every reachable shard before reading any reply, gathering in
 * shard order; single-node operations go to the owning shard. It owns
 * the link half of the fault model: drop/dup/delay tallies on data-
 * plane sends, and partition windows that defer a shard's advances.
 * Only the engine's driver thread touches it; serve threads see only
 * their own controller and link.
 */
class ShardBackend : public NodeBackend
{
  public:
    ShardBackend(const ClusterConfig &config,
                 const FederationConfig &federation);
    ~ShardBackend() override;

    unsigned threads() const override { return threads_; }
    int shards() const override { return static_cast<int>(shards_.size()); }

    std::vector<NodeProbe> probe(const JobRequest &request,
                                 InstCount instructions,
                                 Cycle t) override;
    JobId
    submit(NodeId node, const JobRequest &request, InstCount instructions,
           Cycle t) override
    {
        const auto ack = ask<FedSubmitAck>(
            node, FedSubmit{node, toWireRequest(request, instructions)}, t);
        return ack.ok != 0 ? ack.jobId : invalidJob;
    }
    NodeWorker::CrashReport crash(NodeId node, Cycle t) override
    {
        return fromWireCrash(ask<FedCrashReport>(node, FedCrash{node}, t));
    }
    void restart(NodeId node, Cycle t) override
    {
        ask<FedRestartAck>(node, FedRestart{node, t}, t);
    }
    void recordRelocationFailure(NodeId node, Cycle t) override
    {
        // Counted on the origin node: per-node failed tallies feed
        // failedJobs and the fingerprint, so they live with the node.
        ask<FedRelocFailAck>(node, FedRelocFail{node}, t);
    }
    void advance(Cycle from, Cycle to,
                 const std::vector<Cycle> &stalls) override;
    void drain() override;
    std::vector<NodeMetrics> collect(FaultTallies &faults) override;

    std::uint64_t invariantChecksRun() const override
    {
        return total(&Shard::checksRun);
    }
    std::uint64_t invariantViolations() const override
    {
        return total(&Shard::violations);
    }
    std::string invariantReport() override;

  private:
    /** One shard endpoint: link + backend handle + protocol state. */
    struct Shard
    {
        int index = 0;
        int nodeBegin = 0;
        int nodeCount = 0;
        std::unique_ptr<Link> link;
        /** In-process backends: the controller and its serve thread. */
        ShardController controller;
        std::thread server;
        std::string serveError;
        /** Multi-process backend: the worker child. */
        pid_t pid = -1;
        /** Envelope sequence numbers (per direction). */
        std::uint64_t txSeq = 0;
        std::uint64_t rxSeq = 0;
        /** Advances deferred by partition windows, flushed in order
         *  when the window ends (and before the final drain or
         *  snapshot). */
        std::deque<FedAdvance> deferred;
        /** Last gathered cumulative totals. */
        std::uint64_t checksRun = 0;
        std::uint64_t violations = 0;
        std::uint64_t drops = 0;
    };

    void startShard(Shard &shard);
    void sendPlain(Shard &shard, const FedMessage &msg);
    /** Data-plane send: applies the shard-link fault model (drop =
     *  tally + retransmit, dup = double delivery absorbed by seq
     *  dedup, delay = virtual-cycle tally) before the real send. */
    void sendFaulted(Shard &shard, const FedMessage &msg, Cycle t);
    FedMessage receive(Shard &shard);
    template <typename T> T expect(Shard &shard);
    /** One data-plane round trip with the shard owning @p node. */
    template <typename Reply>
    Reply ask(NodeId node, const FedMessage &msg, Cycle t)
    {
        Shard &owner = shardOf(node);
        sendFaulted(owner, msg, t);
        return expect<Reply>(owner);
    }
    /** Fold one barrier reply (advance or drain) into the shard's
     *  totals and deliver its telemetry batch into the hub. */
    template <typename Done> void gatherBarrier(Shard &shard);
    bool partitioned(const Shard &shard, Cycle t) const
    {
        return links_ != nullptr && links_->partitioned(shard.index, t);
    }
    Shard &shardOf(NodeId node);
    /** Sum of one per-shard oracle total. */
    std::uint64_t total(std::uint64_t Shard::*field) const;
    /** Replay deferred advances of every shard reachable at the last
     *  barrier (every shard when @p force), in order. */
    void flushDeferred(bool force);

    TraceCollector *telemetry_;
    FederationConfig federation_;
    unsigned threads_;
    bool checkInvariants_;
    /** The link half of the fault plan (nullptr when fault-free). */
    std::unique_ptr<FaultInjector> links_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Shard-link tallies, added into the snapshot's fault tallies. */
    FaultTallies linkFaults_;
    /** Time of the last barrier: deferred advances flush against it. */
    Cycle barrier_ = 0;
};

ShardBackend::ShardBackend(const ClusterConfig &config,
                           const FederationConfig &federation)
    : telemetry_(config.telemetry), federation_(federation),
      threads_(config.threads == 0 ? ThreadPool::hardwareConcurrency()
                                   : config.threads),
      checkInvariants_(config.checkInvariants)
{
    cmpqos_assert(federation_.shards >= 1 &&
                      federation_.shards <= config.nodes,
                  "shard count %d must be in [1, %d nodes]",
                  federation_.shards, config.nodes);
    if (config.faultPlan != nullptr && !config.faultPlan->empty()) {
        // Refuse a bad plan before any shard is spawned.
        config.faultPlan->validate(config.nodes, federation_.shards);
        links_ = std::make_unique<FaultInjector>(*config.faultPlan,
                                                 config.quantum);
    }

    // The SAME SplitMix expansion of the cluster seed as the
    // single-process engine, over ALL nodes in global order — each
    // shard receives its slice, so per-node RNG streams are invariant
    // under the shard count.
    const std::vector<std::uint64_t> seeds =
        nodeSeeds(config.seed, config.nodes);

    // Contiguous near-equal slices: base nodes each, the remainder
    // spread over the leading shards.
    const int base = config.nodes / federation_.shards;
    const int rem = config.nodes % federation_.shards;
    int begin = 0;
    for (int s = 0; s < federation_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->index = s;
        shard->nodeBegin = begin;
        shard->nodeCount = base + (s < rem ? 1 : 0);
        begin += shard->nodeCount;
        startShard(*shard);
        FedInit init;
        init.shardIndex = static_cast<std::uint32_t>(shard->index);
        init.shardCount = static_cast<std::uint32_t>(federation_.shards);
        init.nodeBegin = shard->nodeBegin;
        init.nodeCount = shard->nodeCount;
        init.totalNodes = config.nodes;
        init.quantum = config.quantum;
        init.threads = threads_;
        init.telemetry = telemetry_ != nullptr ? 1 : 0;
        init.ringCapacity = federation_.telemetryRing;
        init.checkInvariants = checkInvariants_ ? 1 : 0;
        init.nodeSeeds.assign(
            seeds.begin() + shard->nodeBegin,
            seeds.begin() + shard->nodeBegin + shard->nodeCount);
        init.control = formatControllerSpec(config.control);
        sendPlain(*shard, init);
        shards_.push_back(std::move(shard));
    }
    cmpqos_assert(begin == config.nodes,
                  "shard slices must cover all nodes");
    for (auto &shard : shards_) {
        const FedReady ready = expect<FedReady>(*shard);
        cmpqos_assert(ready.shardIndex ==
                          static_cast<std::uint32_t>(shard->index),
                      "shard %d acknowledged as %u", shard->index,
                      ready.shardIndex);
    }
}

ShardBackend::~ShardBackend()
{
    for (auto &shard : shards_) {
        sendPlain(*shard, FedShutdown{});
        shard->link->close();
        if (shard->server.joinable())
            shard->server.join();
        if (shard->pid > 0) {
            int status = 0;
            ::waitpid(shard->pid, &status, 0);
        }
    }
}

void
ShardBackend::startShard(Shard &shard)
{
    const bool spawn = federation_.transport == FedTransport::Uds &&
                       !federation_.shardBinary.empty();
    if (spawn) {
        int fds[2];
        const int rc = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
        cmpqos_assert(rc == 0, "socketpair: %s", std::strerror(errno));
        const pid_t pid = ::fork();
        cmpqos_assert(pid >= 0, "fork: %s", std::strerror(errno));
        if (pid == 0) {
            // Child: become the shard worker on its end of the pair.
            ::close(fds[0]);
            const std::string fd_arg = std::to_string(fds[1]);
            const std::string shard_arg = std::to_string(shard.index);
            ::execl(federation_.shardBinary.c_str(),
                    federation_.shardBinary.c_str(), "--fd",
                    fd_arg.c_str(), "--shard", shard_arg.c_str(),
                    static_cast<char *>(nullptr));
            // exec only returns on failure; the coordinator sees the
            // closed socket and aborts with a useful message.
            _exit(127);
        }
        ::close(fds[1]);
        shard.pid = pid;
        shard.link = std::make_unique<UdsLink>(fds[0]);
        return;
    }

    auto pair = federation_.transport == FedTransport::Uds
                    ? makeSocketLinkPair()
                    : makeInprocLinkPair();
    shard.link = std::move(pair.first);
    // In-process backend: the controller serves on its own thread.
    // The shared_ptr-free handoff is safe because Shard outlives the
    // thread (the destructor joins before releasing anything).
    std::unique_ptr<Link> peer = std::move(pair.second);
    shard.server = std::thread(
        [controller = &shard.controller, error = &shard.serveError,
         link = std::shared_ptr<Link>(std::move(peer))]() {
            std::string err;
            if (!controller->serve(*link, err))
                *error = err;
            link->close();
        });
}

void
ShardBackend::sendPlain(Shard &shard, const FedMessage &msg)
{
    shard.link->send(encodeFedPayload(++shard.txSeq, msg));
}

void
ShardBackend::sendFaulted(Shard &shard, const FedMessage &msg, Cycle t)
{
    const std::string payload = encodeFedPayload(++shard.txSeq, msg);
    if (links_ != nullptr) {
        if (links_->linkDropped(shard.index, t)) {
            // The first transmission is lost; the coordinator's
            // reliable-delivery discipline retransmits (the send
            // below), so the fault costs a tally, never a command.
            ++linkFaults_.linkDrops;
        }
        if (links_->linkDuplicated(shard.index, t)) {
            // Double delivery, same sequence number: the shard's
            // dedup absorbs the second copy.
            ++linkFaults_.linkDups;
            shard.link->send(payload);
        }
        linkFaults_.linkDelayCycles +=
            links_->linkDelayCycles(shard.index, t);
    }
    const bool ok = shard.link->send(payload);
    cmpqos_assert(ok, "shard %d link send failed: %s", shard.index,
                  shard.link->error().c_str());
}

FedMessage
ShardBackend::receive(Shard &shard)
{
    std::string payload;
    if (!shard.link->recv(payload)) {
        cmpqos_panic("shard %d link lost: %s%s", shard.index,
                     shard.link->error().empty()
                         ? "peer closed"
                         : shard.link->error().c_str(),
                     shard.serveError.empty()
                         ? ""
                         : (" / " + shard.serveError).c_str());
    }
    std::uint64_t seq = 0;
    FedMessage msg;
    std::string error;
    if (!decodeFedPayload(payload, seq, msg, error))
        cmpqos_panic("shard %d sent a bad frame: %s", shard.index,
                     error.c_str());
    cmpqos_assert(seq > shard.rxSeq,
                  "shard %d replayed reply seq %llu", shard.index,
                  static_cast<unsigned long long>(seq));
    shard.rxSeq = seq;
    if (const auto *err = std::get_if<FedError>(&msg))
        cmpqos_panic("shard %d error: %s", shard.index,
                     err->message.c_str());
    return msg;
}

template <typename T>
T
ShardBackend::expect(Shard &shard)
{
    FedMessage msg = receive(shard);
    T *reply = std::get_if<T>(&msg);
    if (reply == nullptr)
        cmpqos_panic("shard %d: unexpected %s reply", shard.index,
                     fedMessageName(msg));
    return std::move(*reply);
}

template <typename Done>
void
ShardBackend::gatherBarrier(Shard &shard)
{
    const Done done = expect<Done>(shard);
    shard.checksRun = done.checksRun;
    shard.violations = done.violations;
    const std::string &events = done.events;
    if (telemetry_ != nullptr && !events.empty()) {
        cmpqos_assert(events.size() % sizeof(TraceEvent) == 0,
                      "shard %d telemetry batch of %zu bytes is not "
                      "a whole number of events",
                      shard.index, events.size());
        // Realign: string storage guarantees char alignment only.
        std::vector<TraceEvent> batch(events.size() /
                                      sizeof(TraceEvent));
        std::memcpy(batch.data(), events.data(), events.size());
        telemetry_->deliverExternal(batch.data(), batch.size());
    }
    if (telemetry_ != nullptr && done.drops > shard.drops)
        telemetry_->noteExternalDrops(done.drops - shard.drops);
    shard.drops = std::max(shard.drops, done.drops);
}

ShardBackend::Shard &
ShardBackend::shardOf(NodeId node)
{
    for (auto &shard : shards_)
        if (node >= shard->nodeBegin &&
            node < shard->nodeBegin + shard->nodeCount)
            return *shard;
    cmpqos_panic("node %d is on no shard", node);
}

std::vector<NodeProbe>
ShardBackend::probe(const JobRequest &request, InstCount instructions,
                    Cycle t)
{
    // Probe-gather: every reachable shard probes its slice; replies
    // concatenated in shard order ARE global node order.
    const WireJobRequest wire = toWireRequest(request, instructions);
    for (auto &shard : shards_)
        if (!partitioned(*shard, t))
            sendFaulted(*shard, FedProbe{wire}, t);
    std::vector<NodeProbe> probes;
    for (auto &shard : shards_) {
        if (partitioned(*shard, t))
            continue; // unreachable slice: its nodes cannot bid
        for (const WireProbe &w : expect<FedProbeReply>(*shard).probes)
            probes.push_back({.node = w.node,
                              .alive = w.alive != 0,
                              .accepted = w.accepted != 0,
                              .slotStart = w.slotStart,
                              .load = w.load,
                              .ways = w.ways});
    }
    return probes;
}

void
ShardBackend::advance(Cycle from, Cycle to,
                      const std::vector<Cycle> &stalls)
{
    // Commit barrier: ship the advance to every reachable shard, then
    // gather one FedQuantumDone per shard in shard order. A shard
    // behind a partition window gets the advance deferred instead.
    for (auto &shard : shards_) {
        FedAdvance adv;
        adv.from = from;
        adv.to = to;
        if (!stalls.empty())
            adv.stalls.assign(
                stalls.begin() + shard->nodeBegin,
                stalls.begin() + shard->nodeBegin + shard->nodeCount);
        adv.check = checkInvariants_ ? 1 : 0;
        if (partitioned(*shard, from)) {
            ++linkFaults_.partitionedQuanta;
            shard->deferred.push_back(std::move(adv));
            continue;
        }
        sendFaulted(*shard, adv, from);
    }
    // Driver ring first, then shard batches in shard order — the
    // exact producer order a single-process drain delivers.
    if (telemetry_ != nullptr)
        telemetry_->drain();
    for (auto &shard : shards_)
        if (!partitioned(*shard, from))
            gatherBarrier<FedQuantumDone>(*shard);
    // Shards whose partition healed by this barrier catch up before
    // anything else happens at it.
    barrier_ = to;
    flushDeferred(false);
}

void
ShardBackend::flushDeferred(bool force)
{
    for (auto &shard : shards_) {
        if (!force && partitioned(*shard, barrier_))
            continue;
        // The partition healed (or the run is ending): replay the
        // deferred barriers in order. Node state catches up exactly —
        // advances commute with the wall-clock of other shards.
        while (!shard->deferred.empty()) {
            FedAdvance adv = std::move(shard->deferred.front());
            shard->deferred.pop_front();
            sendFaulted(*shard, adv, barrier_);
            gatherBarrier<FedQuantumDone>(*shard);
        }
    }
}

void
ShardBackend::drain()
{
    // The run is ending: any partition still open heals now so no
    // barrier is lost.
    flushDeferred(true);
    for (auto &shard : shards_)
        sendPlain(*shard, FedDrainReq{});
    if (telemetry_ != nullptr)
        telemetry_->drain();
    for (auto &shard : shards_)
        gatherBarrier<FedDrainDone>(*shard);
}

std::vector<NodeMetrics>
ShardBackend::collect(FaultTallies &faults)
{
    flushDeferred(true);
    faults.accumulate(linkFaults_);

    std::vector<NodeMetrics> per_node;
    for (auto &shard : shards_) {
        sendPlain(*shard, FedSnapshotReq{});
        const FedSnapshotReply reply = expect<FedSnapshotReply>(*shard);
        cmpqos_assert(reply.nodes.size() ==
                          static_cast<std::size_t>(shard->nodeCount),
                      "shard %d snapshot covers %zu of %d nodes",
                      shard->index, reply.nodes.size(),
                      shard->nodeCount);
        per_node.insert(per_node.end(), reply.nodes.begin(),
                        reply.nodes.end());
    }
    return per_node;
}

std::uint64_t
ShardBackend::total(std::uint64_t Shard::*field) const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += (*shard).*field;
    return sum;
}

std::string
ShardBackend::invariantReport()
{
    std::string report;
    for (auto &shard : shards_) {
        sendPlain(*shard, FedInvariantReq{});
        const FedInvariantReport reply =
            expect<FedInvariantReport>(*shard);
        shard->checksRun = reply.checksRun;
        shard->violations = reply.violations;
        report += reply.report;
    }
    return report;
}

} // namespace

FederatedEngine::FederatedEngine(const ClusterConfig &config,
                                 const FederationConfig &federation)
    : ClusterEngine(config,
                    std::make_unique<ShardBackend>(config, federation),
                    federation.shards)
{
}

} // namespace cmpqos
