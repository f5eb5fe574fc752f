/**
 * @file
 * Service-oriented computing scenario (the paper's Section 1
 * motivation): a utility-computing provider hosts clients with
 * different service-level agreements on one CMP node.
 *
 *  - "gold" clients buy Strict execution with a large resource
 *    preset: their throughput and deadline are guaranteed.
 *  - "silver" clients buy Elastic(10%): deadline guaranteed, up to
 *    10% slowdown tolerated, which lets the provider reclaim unused
 *    cache from them.
 *  - "bronze" clients run Opportunistic on whatever is spare.
 *
 * The example submits a burst of mixed-tier transaction jobs, shows
 * the admission decisions (including a second gold job the node
 * cannot fit before its deadline, and the relaxed deadline global
 * admission negotiates for it), and reports per-tier outcomes.
 */

#include <cstdio>
#include <sstream>

#include "cluster/engine.hh"

using namespace cmpqos;

namespace
{

/** Prints each admission decision as it is made. */
class AdmissionPrinter : public EngineObserver
{
  public:
    void
    onPlacement(const ClusterArrival &arrival,
                const PlacementOutcome &o) override
    {
        std::printf("[%6s] %-7s -> ", qosTierName(arrival.tier),
                    arrival.request.benchmark.c_str());
        if (!o.accepted)
            std::printf("REJECTED (QoS target cannot be satisfied)\n");
        else if (o.negotiated)
            std::printf("rejected as asked; accepted with a deadline "
                        "of %.2f tw instead of %.2f tw (slot at "
                        "%.1fM cycles)\n",
                        o.deadlineFactor,
                        arrival.request.deadlineFactor,
                        static_cast<double>(o.slotStart) / 1e6);
        else
            std::printf("accepted\n");
    }
};

const char *
tierOf(ExecutionMode mode)
{
    switch (mode) {
      case ExecutionMode::Strict: return "gold";
      case ExecutionMode::Elastic: return "silver";
      case ExecutionMode::Opportunistic: return "bronze";
    }
    return "?";
}

} // namespace

int
main()
{
    ClusterConfig config;
    config.nodes = 1;
    config.threads = 1;
    AdmissionPrinter printer;
    config.observer = &printer;

    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 8'000'000;
    mix.tiers[static_cast<std::size_t>(QosTier::Gold)] =
        TierSpec{ModeSpec::strict(), 1.4, 10, 1.0};
    mix.tiers[static_cast<std::size_t>(QosTier::Silver)] =
        TierSpec{ModeSpec::elastic(0.10), 2.0, 4, 1.0};
    mix.tiers[static_cast<std::size_t>(QosTier::Bronze)] =
        TierSpec{ModeSpec::opportunistic(), 4.0, 7, 1.0};

    // A burst of client requests: gold, silver, two bronze, and a
    // second gold whose 10 ways are only free once the first gold job
    // is done — too late for its 1.4 tw deadline.
    std::istringstream burst("0 sphinx gold\n0 hmmer silver\n"
                             "0 gobmk bronze\n0 gobmk bronze\n"
                             "0 sphinx gold\n");
    TraceArrivalProcess arrivals(burst, mix, "burst");

    ClusterEngine engine(config);
    const ClusterMetrics m = engine.runToCompletion(arrivals);

    std::puts("\nper-tier outcomes:");
    for (const auto &job : engine.node(0).framework().jobs()) {
        const bool elastic =
            job->mode().mode == ExecutionMode::Elastic;
        std::printf("[%6s] %-7s wall-clock %6.1fM cycles, deadline %s,"
                    " L2 miss %4.1f%%%s\n",
                    tierOf(job->mode().mode), job->benchmark().c_str(),
                    job->wallClock() / 1e6,
                    job->deadlineMet() ? "MET" : "missed",
                    job->exec()->missRate() * 100.0,
                    elastic ? " (donated cache via stealing)" : "");
    }

    std::uint64_t reserved = 0, missed = 0;
    for (ExecutionMode mode :
         {ExecutionMode::Strict, ExecutionMode::Elastic}) {
        const ModeTally &t = m.byMode[static_cast<std::size_t>(mode)];
        reserved += t.completed;
        missed += t.completed - t.deadlineHits;
    }
    if (missed == 0)
        std::printf("\nall %llu gold/silver deadlines met; bronze jobs "
                    "ran on spare capacity.\n",
                    static_cast<unsigned long long>(reserved));
    else
        std::printf("\n%llu of %llu gold/silver deadlines MISSED\n",
                    static_cast<unsigned long long>(missed),
                    static_cast<unsigned long long>(reserved));
    if (m.negotiated > 0)
        std::puts("The gold request the node could not fit in time was "
                  "offered a deadline it\ncan honour instead of "
                  "silently degrading everyone — the paper's case for\n"
                  "admission control.");
    return missed == 0 ? 0 : 1;
}
