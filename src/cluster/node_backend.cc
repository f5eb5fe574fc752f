#include "node_backend.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace cmpqos
{

std::vector<std::uint64_t>
nodeSeeds(std::uint64_t cluster_seed, int nodes)
{
    // Independent, reproducible per-node RNG streams: one SplitMix
    // expansion of the cluster seed per node (Rng seeds via
    // SplitMix64), so results do not depend on the thread count or on
    // which process hosts a node.
    cmpqos_assert(nodes > 0, "cluster needs at least one node");
    Rng seeder(cluster_seed);
    std::vector<std::uint64_t> seeds;
    seeds.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
        seeds.push_back(seeder.next());
    return seeds;
}

LocalBackend::LocalBackend(NodeId first,
                           const std::vector<std::uint64_t> &seeds,
                           const FrameworkConfig &node, unsigned threads,
                           TraceCollector *telemetry,
                           bool check_invariants,
                           const ControllerConfig &control)
    : first_(first), pool_(threads), telemetry_(telemetry)
{
    const auto count = static_cast<int>(seeds.size());
    nodes_.reserve(seeds.size());
    for (int i = 0; i < count; ++i) {
        auto worker = std::make_unique<NodeWorker>(
            first + i, node, seeds[static_cast<std::size_t>(i)]);
        if (telemetry_ != nullptr)
            worker->setTrace(telemetry_->nodeRecorder(i));
        if (control.enabled)
            worker->enableController(control);
        nodes_.push_back(std::move(worker));
    }
    if (check_invariants)
        checker_ = std::make_unique<InvariantChecker>();
}

NodeWorker &
LocalBackend::node(NodeId id)
{
    cmpqos_assert(contains(id), "node %d is not in this slice", id);
    return *nodes_[static_cast<std::size_t>(id - first_)];
}

std::vector<NodeProbe>
LocalBackend::probe(const JobRequest &request, InstCount instructions,
                    Cycle)
{
    std::vector<NodeProbe> probes;
    probes.reserve(nodes_.size());
    for (const auto &node : nodes_) {
        NodeProbe p;
        p.node = node->id();
        p.alive = node->alive();
        if (p.alive) {
            const AdmissionDecision d = node->probe(request, instructions);
            p.accepted = d.accepted;
            p.slotStart = d.slotStart;
            p.load = node->inFlight();
            p.ways = node->framework()
                         .lac()
                         .timeline()
                         .reservedAt(node->virtualNow())
                         .ways;
        }
        probes.push_back(p);
    }
    return probes;
}

JobId
LocalBackend::submit(NodeId id, const JobRequest &request,
                     InstCount instructions, Cycle)
{
    const Job *job = node(id).submit(request, instructions);
    return job != nullptr ? job->id() : invalidJob;
}

void
LocalBackend::advance(Cycle, Cycle to, const std::vector<Cycle> &stalls)
{
    cmpqos_assert(stalls.empty() || stalls.size() == nodes_.size(),
                  "%zu stalls for %zu nodes", stalls.size(),
                  nodes_.size());
    // Controllers step on the driving thread before the pool takes the
    // nodes: each sees the reservations placed since the last barrier
    // and can revert way grants ahead of any reserved-start headroom
    // check inside the quantum.
    for (auto &node : nodes_)
        node->controllerStep();
    pool_.parallelFor(nodes_.size(), [this, to, &stalls](std::size_t i) {
        nodes_[i]->advanceTo(to, stalls.empty() ? 0 : stalls[i]);
    });
    barrier();
}

void
LocalBackend::drain()
{
    pool_.parallelFor(nodes_.size(),
                      [this](std::size_t i) { nodes_[i]->drain(); });
    barrier();
}

void
LocalBackend::barrier()
{
    if (telemetry_ != nullptr)
        telemetry_->drain();
    if (checker_ == nullptr)
        return;
    for (const auto &node : nodes_)
        if (node->alive())
            checker_->checkNode(node->id(), node->framework(),
                                node->virtualNow());
}

std::vector<NodeMetrics>
LocalBackend::collect(FaultTallies &)
{
    std::vector<NodeMetrics> metrics;
    metrics.reserve(nodes_.size());
    for (const auto &node : nodes_)
        metrics.push_back(MetricsExporter::collectNode(*node));
    return metrics;
}

} // namespace cmpqos
