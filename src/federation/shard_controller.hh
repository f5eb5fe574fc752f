/**
 * @file
 * The shard controller: the server side of one federation link. Each
 * shard owns a contiguous slice of the cluster's nodes and runs their
 * LACs (and co-simulations) locally on its own worker pool; the
 * coordinator's GAC reaches them only through the shard protocol
 * (message.hh), so admission probes, submissions, fault actions and
 * quantum barriers are all real messages.
 *
 * Determinism: the controller is a pure command executor. It holds no
 * clock and makes no scheduling decisions — every state change is
 * ordered by the coordinator's message stream, and node commands run
 * on the same LocalBackend the single-process engine uses, so a
 * shard's behaviour is a function of (FedInit, message sequence)
 * alone, at any local thread count.
 *
 * Duplicate delivery (the link-dup fault, or a retransmission) is
 * absorbed here: every coordinator message carries a monotonically
 * increasing sequence number, and a message whose sequence is not
 * newer than the last executed one is skipped without reply — the
 * command idempotency half of the commit protocol.
 */

#ifndef CMPQOS_FEDERATION_SHARD_CONTROLLER_HH
#define CMPQOS_FEDERATION_SHARD_CONTROLLER_HH

#include <memory>
#include <optional>
#include <string>

#include "cluster/node_backend.hh"
#include "common/annotations.hh"
#include "federation/message.hh"
#include "federation/transport.hh"
#include "telemetry/collector.hh"

namespace cmpqos
{

/**
 * Sink that buffers drained TraceEvents as raw 88-byte records for
 * shipment to the coordinator, rebasing node ids from shard-local
 * producer indices to global node ids. The coordinator replays the
 * batch through TraceCollector::deliverExternal in shard order, which
 * reconstructs the exact producer-order stream a single-process run
 * delivers.
 */
class ShardBufferSink : public TraceSink
{
  public:
    explicit ShardBufferSink(std::int16_t node_begin)
        : nodeBegin_(node_begin)
    {
    }

    void consume(const TraceEvent &e) override;
    void close(const TraceMeta &) override {}

    /** Move the buffered batch out (leaves the buffer empty). */
    std::string take() { return std::move(buffer_); }

  private:
    std::int16_t nodeBegin_;
    std::string buffer_;
};

/**
 * One shard's command executor. Construct, then serve() a link until
 * the coordinator shuts the shard down. All state is created by the
 * FedInit message, so the same class backs the in-process serve
 * threads and the `federation_shard` worker processes. Every node
 * command executes on a LocalBackend over the shard's slice — the
 * single-process engine's node code, behind a codec. A node command
 * the slice cannot run (a node outside it, a submit to or crash of a
 * dead node, a restart of a live one) is answered with a FedError
 * naming the node, never an abort of the shard.
 */
class ShardController
{
  public:
    ShardController() = default;

    ShardController(const ShardController &) = delete;
    ShardController &operator=(const ShardController &) = delete;

    /**
     * Execute the coordinator's command stream until FedShutdown or
     * link close. Returns false when the link was poisoned (protocol
     * error — details in @p error); a clean shutdown returns true.
     */
    bool serve(Link &link, std::string &error);

  private:
    FedMessage handle(const FedMessage &msg) CMPQOS_REQUIRES(owner_);

    /** The FedError answering node command @p msg when @p node is
     *  outside the slice or its liveness is not @p alive (nullopt:
     *  either will do); nullopt when the command can run. */
    std::optional<FedError> refusal(const FedMessage &msg, NodeId node,
                                    std::optional<bool> alive)
        CMPQOS_REQUIRES(owner_);
    FedMessage onInit(const FedInit &m) CMPQOS_REQUIRES(owner_);
    FedMessage onAdvance(const FedAdvance &m) CMPQOS_REQUIRES(owner_);
    /** A barrier reply (FedQuantumDone / FedDrainDone): cumulative
     *  oracle totals plus the telemetry drained since the last one. */
    template <typename Done> Done barrierDone() CMPQOS_REQUIRES(owner_);

    /**
     * The serve role: exactly one thread runs serve(), and every
     * piece of shard state belongs to it (pool workers only ever see
     * a NodeWorker handed over at the advance barrier, exactly as in
     * the single-process engine).
     */
    OwnerRole owner_;

    std::unique_ptr<TraceCollector> collector_ CMPQOS_GUARDED_BY(owner_);
    std::unique_ptr<ShardBufferSink> buffer_ CMPQOS_GUARDED_BY(owner_);
    std::unique_ptr<LocalBackend> nodes_ CMPQOS_GUARDED_BY(owner_);

    /** Highest coordinator sequence executed (duplicate absorber). */
    std::uint64_t lastRxSeq_ CMPQOS_GUARDED_BY(owner_) = 0;
    /** Our own reply sequence. */
    std::uint64_t txSeq_ CMPQOS_GUARDED_BY(owner_) = 0;
};

// Wire conversions shared by the coordinator and the shard.

/** Pack a JobRequest (+ job length) for the wire. */
WireJobRequest toWireRequest(const JobRequest &request,
                             InstCount instructions);

/** Unpack a WireJobRequest. */
JobRequest fromWireRequest(const WireJobRequest &w,
                           InstCount &instructions);

FedCrashReport toWireCrash(NodeId node,
                           const NodeWorker::CrashReport &report);
NodeWorker::CrashReport fromWireCrash(const FedCrashReport &w);

} // namespace cmpqos

#endif // CMPQOS_FEDERATION_SHARD_CONTROLLER_HH
