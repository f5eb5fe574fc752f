/**
 * @file
 * Batch-cluster scenario (Section 3.1's working environment): a
 * server with several CMP nodes fronted by a Global Admission
 * Controller. Jobs specify RUM targets the way Lsbatch-style batch
 * systems do (processor count, memory/cache size, maximum wall-clock
 * time, deadline); the GAC probes each node's Local Admission
 * Controller, places each job on the node offering the earliest
 * timeslot, and negotiates a relaxed deadline when no node can meet
 * the one asked for.
 *
 * The cluster engine runs the whole batch: every placed job executes
 * on its node, and the summary checks each deadline the nodes agreed
 * to.
 */

#include <cstdio>
#include <sstream>

#include "cluster/engine.hh"

using namespace cmpqos;

namespace
{

/** Prints each admission decision as the GAC makes it. */
class PlacementPrinter : public EngineObserver
{
  public:
    void
    onPlacement(const ClusterArrival &arrival,
                const PlacementOutcome &o) override
    {
        const char *bench = arrival.request.benchmark.c_str();
        if (!o.accepted) {
            std::printf("%-10s -> rejected, no feasible deadline\n",
                        bench);
            return;
        }
        std::printf("%-10s -> node %d, slot at %5.1fM cycles", bench,
                    o.node, static_cast<double>(o.slotStart) / 1e6);
        if (o.negotiated)
            std::printf(", deadline negotiated to %.2f tw (asked "
                        "%.2f tw)",
                        o.deadlineFactor,
                        arrival.request.deadlineFactor);
        std::printf("\n");
    }
};

} // namespace

int
main()
{
    ClusterConfig config;
    config.nodes = 3;
    config.threads = 1;
    config.policy = GacPolicy::EarliestSlot;
    PlacementPrinter printer;
    config.observer = &printer;

    // A batch submitted at once: "medium" preset RUM targets (1 core,
    // 7 of 16 ways, Strict) whose deadline class is the tier —
    // gold tight (1.05 tw), silver moderate (2 tw), bronze relaxed
    // (3 tw).
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 6'000'000;
    const double deadlines[] = {1.05, 2.0, 3.0};
    for (std::size_t t = 0; t < numQosTiers; ++t)
        mix.tiers[t] = TierSpec{ModeSpec::strict(), deadlines[t], 7, 1.0};
    std::istringstream batch("0 bzip2 gold\n0 gobmk gold\n0 hmmer gold\n"
                             "0 mcf gold\n0 soplex gold\n"
                             "0 sphinx gold\n0 astar gold\n"
                             "0 gcc silver\n0 perl gold\n0 milc gold\n"
                             "0 namd bronze\n0 povray gold\n"
                             "0 sjeng gold\n0 h264ref gold\n"
                             "0 libquantum gold\n");
    TraceArrivalProcess arrivals(batch, mix, "batch");

    ClusterEngine engine(config);
    const ClusterMetrics m = engine.runToCompletion(arrivals);

    std::printf("\nGAC summary: %llu accepted (",
                static_cast<unsigned long long>(m.accepted));
    for (const NodeMetrics &n : m.nodes)
        std::printf("node%d=%llu%s", n.node,
                    static_cast<unsigned long long>(n.placed),
                    n.node + 1 < engine.numNodes() ? ", " : ")");
    std::printf(", %llu after negotiation, %llu rejected\n",
                static_cast<unsigned long long>(m.negotiated),
                static_cast<unsigned long long>(m.rejected));

    const ModeTally &strict =
        m.byMode[static_cast<std::size_t>(ExecutionMode::Strict)];
    const std::uint64_t missed = strict.completed - strict.deadlineHits;
    if (missed == 0)
        std::printf("executed %llu jobs: all %llu deadlines met\n",
                    static_cast<unsigned long long>(m.completed),
                    static_cast<unsigned long long>(strict.completed));
    else
        std::printf("executed %llu jobs: %llu deadlines MISSED\n",
                    static_cast<unsigned long long>(m.completed),
                    static_cast<unsigned long long>(missed));
    return missed == 0 ? 0 : 1;
}
