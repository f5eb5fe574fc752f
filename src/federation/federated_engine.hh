/**
 * @file
 * The federated engine: the cluster driver (ClusterEngine) over a
 * shard backend. The driver keeps every GAC responsibility — the
 * arrival stream, placement policy, negotiation, the fault injector,
 * the telemetry hub — in this process, while the nodes live on shard
 * controllers, each owning a contiguous slice behind a Link, so every
 * node probe, submission and advance is a message.
 *
 * Epoch-commit protocol per placement quantum:
 *
 *   1. probe-gather — one FedProbe per reachable shard, all sent
 *      before any reply is read, replies concatenated in shard order
 *      (= global node order, shards own contiguous slices) so the
 *      driver's policy scan sees exactly the in-process probe round;
 *   2. admit decision — the driver picks a node, negotiates relaxed
 *      deadlines through further probe rounds, and commits with
 *      FedSubmit to the owning shard;
 *   3. commit barrier — FedAdvance to every shard, one FedQuantumDone
 *      gathered per shard in shard order, carrying the shard's
 *      telemetry batch and cumulative oracle totals.
 *
 * Determinism: per-node RNG seeds are derived from the cluster seed
 * for ALL nodes on the coordinator and shipped in FedInit, the
 * barrier protocol orders every cross-shard interaction, and
 * telemetry batches are replayed into the hub in producer order — so
 * engine output and telemetry fingerprints are byte-identical across
 * any shard count x any thread count x either transport (and equal
 * to the single-process engine's) for plans without shard-link
 * faults. Shard-link faults (drop/dup/delay/partition) perturb
 * placement deterministically for a fixed topology.
 *
 * Limitation: shards build their node frameworks from the default
 * FrameworkConfig (FedInit does not ship one); ClusterConfig::node
 * must be left at defaults, which every driver in this repo does.
 */

#ifndef CMPQOS_FEDERATION_FEDERATED_ENGINE_HH
#define CMPQOS_FEDERATION_FEDERATED_ENGINE_HH

#include <string>

#include "cluster/engine.hh"
#include "federation/message.hh"

namespace cmpqos
{

/** Shard-link backend. */
enum class FedTransport
{
    /** Blocking in-process queues (default). */
    Inproc,
    /** Unix-domain stream sockets: socketpair() + serve threads, or
     *  spawned worker processes when a shard binary is configured. */
    Uds,
};

const char *fedTransportName(FedTransport t);
/** Parse "inproc" / "uds". @return false on anything else. */
bool parseFedTransport(const std::string &name, FedTransport &out);

/** Federation topology and transport configuration. */
struct FederationConfig
{
    /** Shard controllers to split the nodes over (contiguous slices,
     *  near-equal sizes). Must be in [1, nodes]. */
    int shards = 1;
    FedTransport transport = FedTransport::Inproc;
    /** Uds only: path of a `federation_shard` worker binary to spawn
     *  per shard (fork/exec over socketpair). Empty = serve threads
     *  inside this process (still exercising the real fd path). */
    std::string shardBinary;
    /** Shard-side telemetry ring capacity (0 = collector default).
     *  Pass the coordinator hub's capacity so drop behaviour matches
     *  the single-process engine. */
    std::size_t telemetryRing = 0;
};

/**
 * Sharded cluster engine: ClusterEngine with its nodes spread over
 * shard controllers. Accepts the same ClusterConfig (telemetry, fault
 * plan, observer, invariant oracle) and returns the same
 * ClusterMetrics; only the construction differs.
 */
class FederatedEngine : public ClusterEngine
{
  public:
    FederatedEngine(const ClusterConfig &config,
                    const FederationConfig &federation);
};

} // namespace cmpqos

#endif // CMPQOS_FEDERATION_FEDERATED_ENGINE_HH
