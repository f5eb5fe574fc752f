/**
 * @file
 * qosd: the persistent admission service around ClusterEngine.
 *
 * Two threads share the daemon:
 *
 *  - The NETWORK thread (the caller of run()) owns every socket: it
 *    accepts connections, decodes frames, validates submissions,
 *    assigns arrival times, writes the journal, and pushes arrivals
 *    into the current epoch's BlockingArrivalQueue. It is the only
 *    thread that ever touches a Session.
 *
 *  - The ENGINE thread runs one ClusterEngine per epoch to
 *    completion over that queue (so it is the engine's driver
 *    thread). Admission verdicts and telemetry reach clients through
 *    the outbox: the engine thread appends (session, message) pairs
 *    under the daemon mutex and pokes the network thread's wakeup
 *    pipe; the network thread alone writes the bytes.
 *
 * Ownership contract: the engine and its queue belong to the epoch.
 * The network thread reaches them only under mu_ and only through
 * the queue/journal handles; it never calls into ClusterEngine. The
 * engine thread conversely never touches sessions or sockets. The
 * observer callbacks run on the engine thread between placements, so
 * everything they read (the pending-ticket FIFO, the live counters)
 * is mu_-guarded.
 *
 * Determinism: virtual time only advances between arrivals, so the
 * blocking queue makes the live run byte-identical to a
 * TraceArrivalProcess replay of the journal (see arrival_queue.hh).
 * Every epoch's DrainDone carries the engine fingerprint a replay
 * must reproduce at any thread count.
 */

#ifndef CMPQOS_SERVICE_DAEMON_HH
#define CMPQOS_SERVICE_DAEMON_HH

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "federation/federated_engine.hh"
#include "service/arrival_queue.hh"
#include "service/epoch_config.hh"
#include "service/journal.hh"
#include "service/protocol.hh"
#include "service/session.hh"

namespace cmpqos
{

/** The admission-service daemon. */
class QosDaemon
{
  public:
    struct Options
    {
        /** Unix-domain socket path (preferred transport). */
        std::string socketPath;
        /** Or a loopback TCP port (used when socketPath is empty). */
        int tcpPort = 0;
        /** Engine worker threads (0 = hardware concurrency). */
        unsigned threads = 0;
        /** Engine shards; >1 runs each epoch on a FederatedEngine.
         *  Like threads, deliberately NOT part of EpochConfig: the
         *  journal, replay command and fingerprint are identical at
         *  any shard count. At most one per node: start() refuses
         *  more, and so does a Reconfig that lowers nodes below it. */
        int shards = 1;
        /** Shard link transport when shards > 1. */
        FedTransport shardTransport = FedTransport::Inproc;
        /** Per-connection frame/line size ceiling, bytes. */
        std::size_t maxFrame = defaultMaxFrame;
        /** Directory journals are written into (created if absent);
         *  epoch N writes <dir>/epoch-NNNN.trace. */
        std::string journalDir = "qosd-journal";
        /** Initial epoch configuration. */
        EpochConfig epoch;
        /** Telemetry ring slots per producer. */
        std::size_t traceCapacity = 32768;
        /** Suppress the operator log lines on stdout. */
        bool quiet = false;
    };

    /** Connection-level statistics (network thread only). */
    struct ConnStats
    {
        std::uint64_t accepted = 0;
        /** Malformed / oversized frames answered with ErrorMsg. */
        std::uint64_t malformed = 0;
        /** Peers that vanished with a partial frame buffered. */
        std::uint64_t midFrameDisconnects = 0;
    };

    explicit QosDaemon(Options opts);
    ~QosDaemon();

    QosDaemon(const QosDaemon &) = delete;
    QosDaemon &operator=(const QosDaemon &) = delete;

    /** Bind, listen and open epoch 0's journal. False with @p err
     *  set on any failure (nothing to clean up then). */
    bool start(std::string &err);

    /**
     * Start the engine thread and run the network event loop.
     * Returns after a Drain{shutdown=1} (or a byte on shutdownFd())
     * once the final epoch drained and replies flushed. start() must
     * have succeeded.
     */
    void run();

    /**
     * Write end of the self-pipe: writing one byte requests a
     * graceful drain-and-shutdown, exactly like Drain{shutdown=1}.
     * async-signal-safe (it is just a write()), for SIGINT/SIGTERM
     * handlers.
     */
    int shutdownFd() const { return shutdownPipe_[1]; }

    /** Path epoch @p epoch's journal is (being) written to. */
    std::string journalPath(std::uint64_t epoch) const;

    const ConnStats &connStats() const { return connStats_; }

    /** Epochs fully drained over the daemon's lifetime. */
    std::uint64_t epochsCompleted() const
    {
        return epochsCompleted_.load(std::memory_order_relaxed);
    }

  private:
    class Observer;
    class ForwardSink;
    friend class Observer;
    friend class ForwardSink;

    static constexpr std::uint64_t kBroadcast = 0;
    static constexpr std::uint64_t kNoSession = UINT64_MAX;

    /** Aggregate admission counters (closed epochs + live epoch). */
    struct Counters
    {
        std::uint64_t submitted = 0;
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t negotiated = 0;
        std::uint64_t completed = 0;
    };

    struct PendingSubmit
    {
        std::uint64_t session = 0;
        std::uint32_t ticket = 0;
        Cycle time = 0;
    };

    struct Outgoing
    {
        /** Target session id, or kBroadcast for every subscriber. */
        std::uint64_t session = 0;
        Message message;
    };

    // --- engine thread ---
    void engineMain();
    /** Close the finished epoch, reply to its drain/reconfig
     *  requester, and open the next one; true = shut down. */
    bool finishEpoch(const ClusterMetrics &m,
                     std::vector<std::string> &&event_residue)
        CMPQOS_EXCLUDES(mu_);
    void postOutgoing(std::uint64_t session, Message m)
        CMPQOS_REQUIRES(mu_);
    void wakeNetwork();

    // --- network thread ---
    void acceptPending();
    void handleSession(Session &s);
    void dispatch(Session &s, const Message &m);
    void handleHello(Session &s, const Hello &m);
    void handleSubmit(Session &s, const Submit &m);
    void handleStatus(Session &s);
    void handleDrain(Session &s, const Drain &m);
    void handleReconfig(Session &s, const Reconfig &m);
    /** Begin a drain; false when one is already pending. */
    bool beginDrain(std::uint64_t session, bool shutdown,
                    bool reconfig_after) CMPQOS_EXCLUDES(mu_);
    void deliverOutbox();
    Session *findSession(std::uint64_t id);
    void openEpochLocked() CMPQOS_REQUIRES(mu_);
    void logLine(const char *fmt, ...) const;

    Options opts_;

    // Immutable-after-start() fds.
    int listenFd_ = -1;
    int wakeupPipe_[2] = {-1, -1};
    int shutdownPipe_[2] = {-1, -1};
    bool started_ = false;

    std::thread engineThread_;
    std::atomic<bool> stop_{false};
    std::atomic<int> subscriberCount_{0};
    std::atomic<std::uint64_t> epochsCompleted_{0};

    // Network-thread-only state.
    std::vector<std::unique_ptr<Session>> sessions_;
    std::uint64_t nextSessionId_ = 1;
    ConnStats connStats_;

    // Shared epoch state (network + engine threads).
    mutable Mutex mu_;
    std::uint64_t epoch_ CMPQOS_GUARDED_BY(mu_) = 0;
    EpochConfig config_ CMPQOS_GUARDED_BY(mu_);
    ArrivalMix mix_ CMPQOS_GUARDED_BY(mu_);
    DaemonState state_ CMPQOS_GUARDED_BY(mu_) = DaemonState::Running;
    std::unique_ptr<BlockingArrivalQueue> queue_ CMPQOS_GUARDED_BY(mu_);
    std::unique_ptr<SubmissionJournal> journal_ CMPQOS_GUARDED_BY(mu_);
    bool anySubmitted_ CMPQOS_GUARDED_BY(mu_) = false;
    Cycle lastTime_ CMPQOS_GUARDED_BY(mu_) = 0;
    std::deque<PendingSubmit> pendingReplies_ CMPQOS_GUARDED_BY(mu_);
    /** Session waiting for DrainDone (kNoSession = signal-driven). */
    std::uint64_t drainRequester_ CMPQOS_GUARDED_BY(mu_) = kNoSession;
    bool drainPending_ CMPQOS_GUARDED_BY(mu_) = false;
    bool shutdownAfterDrain_ CMPQOS_GUARDED_BY(mu_) = false;
    bool reconfigPending_ CMPQOS_GUARDED_BY(mu_) = false;
    std::uint64_t reconfigRequester_ CMPQOS_GUARDED_BY(mu_) =
        kNoSession;
    EpochConfig reconfigNext_ CMPQOS_GUARDED_BY(mu_);
    Counters closedTotals_ CMPQOS_GUARDED_BY(mu_);
    Counters live_ CMPQOS_GUARDED_BY(mu_);
    Cycle liveVirtualTime_ CMPQOS_GUARDED_BY(mu_) = 0;
    std::vector<Outgoing> outbox_ CMPQOS_GUARDED_BY(mu_);
};

} // namespace cmpqos

#endif // CMPQOS_SERVICE_DAEMON_HH
