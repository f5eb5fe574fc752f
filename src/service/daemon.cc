#include "daemon.hh"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "telemetry/sink.hh"
#include "workload/benchmark.hh"

namespace cmpqos
{

namespace
{

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void
drainPipe(int fd)
{
    char buf[64];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
}

bool
makeDirs(const std::string &path, std::string &err)
{
    std::size_t pos = 0;
    while (pos <= path.size()) {
        const std::size_t slash = path.find('/', pos + 1);
        const std::string prefix =
            slash == std::string::npos ? path : path.substr(0, slash);
        if (!prefix.empty() && prefix != "." && prefix != "/") {
            if (::mkdir(prefix.c_str(), 0777) != 0 &&
                errno != EEXIST) {
                err = "mkdir '" + prefix +
                      "': " + std::strerror(errno);
                return false;
            }
        }
        if (slash == std::string::npos)
            break;
        pos = slash;
    }
    return true;
}

/** Stalled-subscriber ceiling: a client that stops reading its event
 *  stream is dropped rather than buffering without bound. */
constexpr std::size_t maxPendingTx = 8 * 1024 * 1024;

} // namespace

// --- engine-thread helpers ------------------------------------------

/**
 * Telemetry sink for the live event stream: buffers JSONL-rendered
 * lines on the engine thread (collector drains happen at quantum
 * barriers, always before the matching onQuantum), which the observer
 * then moves into the outbox. Formatting is skipped entirely while no
 * session subscribes.
 */
class QosDaemon::ForwardSink : public TraceSink
{
  public:
    explicit ForwardSink(QosDaemon &daemon) : daemon_(daemon) {}

    void
    consume(const TraceEvent &e) override
    {
        if (daemon_.subscriberCount_.load(std::memory_order_relaxed) ==
            0)
            return;
        lines_.push_back(JsonlTraceSink::formatLine(e));
    }

    void close(const TraceMeta &) override {}

    std::vector<std::string>
    takeLines()
    {
        std::vector<std::string> out;
        out.swap(lines_);
        return out;
    }

  private:
    QosDaemon &daemon_;
    std::vector<std::string> lines_;
};

/**
 * The engine-side bridge: placement verdicts become SubmitReply
 * messages (matched to tickets in FIFO order — placement order is
 * queue order is journal order), quantum barriers flush the event
 * stream and refresh the live status counters. Runs on the engine's
 * driver thread; everything it touches is mu_-guarded.
 */
class QosDaemon::Observer : public EngineObserver
{
  public:
    Observer(QosDaemon &daemon, ForwardSink &sink, std::uint64_t epoch)
        : daemon_(daemon), sink_(sink), epoch_(epoch)
    {
    }

    void
    onPlacement(const ClusterArrival &arrival,
                const PlacementOutcome &outcome) override
    {
        {
            MutexLock lock(daemon_.mu_);
            ++daemon_.live_.submitted;
            if (outcome.accepted) {
                ++daemon_.live_.accepted;
                if (outcome.negotiated)
                    ++daemon_.live_.negotiated;
            } else {
                ++daemon_.live_.rejected;
            }
            cmpqos_assert(!daemon_.pendingReplies_.empty(),
                          "placement with no pending submission "
                          "(journal/queue order broken)");
            const PendingSubmit p = daemon_.pendingReplies_.front();
            daemon_.pendingReplies_.pop_front();
            cmpqos_assert(p.time == arrival.time,
                          "reply/arrival order skew: ticket %u "
                          "expected t=%llu, placed t=%llu",
                          p.ticket,
                          static_cast<unsigned long long>(p.time),
                          static_cast<unsigned long long>(
                              arrival.time));
            SubmitReply r;
            r.ticket = p.ticket;
            r.seq = outcome.seq;
            r.outcome = static_cast<std::uint8_t>(
                outcome.accepted
                    ? (outcome.negotiated ? AdmitOutcome::Negotiated
                                          : AdmitOutcome::Accepted)
                    : AdmitOutcome::Rejected);
            r.node = outcome.node;
            r.time = arrival.time;
            r.slotStart = outcome.slotStart;
            r.deadlineFactor = outcome.deadlineFactor;
            daemon_.postOutgoing(p.session, std::move(r));
        }
        daemon_.wakeNetwork();
    }

    void
    onQuantum(Cycle now) override
    {
        std::vector<std::string> lines = sink_.takeLines();
        {
            MutexLock lock(daemon_.mu_);
            daemon_.liveVirtualTime_ = now;
            for (auto &line : lines) {
                EventMsg e;
                e.epoch = epoch_;
                e.line = std::move(line);
                daemon_.postOutgoing(kBroadcast, std::move(e));
            }
        }
        daemon_.wakeNetwork();
    }

  private:
    QosDaemon &daemon_;
    ForwardSink &sink_;
    std::uint64_t epoch_;
};

// --- construction / setup -------------------------------------------

QosDaemon::QosDaemon(Options opts) : opts_(std::move(opts)) {}

QosDaemon::~QosDaemon()
{
    cmpqos_assert(!engineThread_.joinable(),
                  "daemon destroyed while run() is active");
    sessions_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (const int fd :
         {wakeupPipe_[0], wakeupPipe_[1], shutdownPipe_[0],
          shutdownPipe_[1]}) {
        if (fd >= 0)
            ::close(fd);
    }
    if (started_ && !opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
}

std::string
QosDaemon::journalPath(std::uint64_t epoch) const
{
    char name[48];
    std::snprintf(name, sizeof(name), "epoch-%04llu.trace",
                  static_cast<unsigned long long>(epoch));
    return opts_.journalDir + "/" + name;
}

void
QosDaemon::openEpochLocked()
{
    journal_ = std::make_unique<SubmissionJournal>(journalPath(epoch_),
                                                   config_, epoch_);
    queue_ = std::make_unique<BlockingArrivalQueue>();
    anySubmitted_ = false;
    lastTime_ = 0;
    liveVirtualTime_ = 0;
}

bool
QosDaemon::start(std::string &err)
{
    cmpqos_assert(!started_, "start() called twice");
    if (opts_.socketPath.empty() && opts_.tcpPort <= 0) {
        err = "no transport: set a socket path or a TCP port";
        return false;
    }
    if (!makeDirs(opts_.journalDir, err))
        return false;

    {
        MutexLock lock(mu_);
        config_ = opts_.epoch;
        mix_ = epochMix(config_);
        openEpochLocked();
    }

    if (::pipe(wakeupPipe_) != 0 || ::pipe(shutdownPipe_) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    for (const int fd :
         {wakeupPipe_[0], wakeupPipe_[1], shutdownPipe_[0],
          shutdownPipe_[1]}) {
        if (!setNonBlocking(fd)) {
            err = "cannot make pipes non-blocking";
            return false;
        }
    }

    if (!opts_.socketPath.empty()) {
        sockaddr_un addr{};
        if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
            err = "socket path too long: " + opts_.socketPath;
            return false;
        }
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        ::unlink(opts_.socketPath.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            err = "bind '" + opts_.socketPath +
                  "': " + std::strerror(errno);
            return false;
        }
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(opts_.tcpPort));
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            err = "bind 127.0.0.1:" + std::to_string(opts_.tcpPort) +
                  ": " + std::strerror(errno);
            return false;
        }
    }
    if (::listen(listenFd_, 64) != 0 || !setNonBlocking(listenFd_)) {
        err = std::string("listen: ") + std::strerror(errno);
        return false;
    }
    started_ = true;
    logLine("listening on %s, journal dir %s, epoch 0",
            opts_.socketPath.empty()
                ? ("127.0.0.1:" + std::to_string(opts_.tcpPort))
                      .c_str()
                : opts_.socketPath.c_str(),
            opts_.journalDir.c_str());
    return true;
}

// --- engine thread --------------------------------------------------

void
QosDaemon::engineMain()
{
    for (;;) {
        EpochConfig cfg;
        BlockingArrivalQueue *queue = nullptr;
        std::uint64_t epoch = 0;
        {
            MutexLock lock(mu_);
            cfg = config_;
            queue = queue_.get();
            epoch = epoch_;
        }
        TelemetryConfig tc;
        tc.ringCapacity = opts_.traceCapacity;
        TraceCollector collector(cfg.nodes + 1, tc);
        ForwardSink sink(*this);
        collector.addSink(&sink);
        ClusterConfig cluster = epochClusterConfig(cfg, opts_.threads);
        cluster.telemetry = &collector;
        Observer observer(*this, sink, epoch);
        cluster.observer = &observer;
        // Shard count, like thread count, must never affect results:
        // the drained fingerprint and the journal replay are
        // byte-identical either way (tested in test_daemon.cc).
        FederationConfig fed;
        fed.shards = opts_.shards;
        fed.transport = opts_.shardTransport;
        fed.telemetryRing = opts_.traceCapacity;
        const std::unique_ptr<ClusterEngine> engine =
            opts_.shards > 1
                ? std::make_unique<FederatedEngine>(cluster, fed)
                : std::make_unique<ClusterEngine>(cluster);
        const ClusterMetrics m = engine->runToCompletion(*queue);
        collector.finish(cfg.seed, engine->numThreads(), m.wallSeconds);
        if (m.invariantViolations != 0)
            cmpqos_warn("epoch %llu: %llu invariant violations",
                        static_cast<unsigned long long>(epoch),
                        static_cast<unsigned long long>(
                            m.invariantViolations));
        if (finishEpoch(m, sink.takeLines()))
            break;
    }
    stop_.store(true, std::memory_order_release);
    wakeNetwork();
}

bool
QosDaemon::finishEpoch(const ClusterMetrics &m,
                       std::vector<std::string> &&event_residue)
{
    bool shutdown = false;
    {
        MutexLock lock(mu_);
        journal_->close();
        cmpqos_assert(pendingReplies_.empty(),
                      "epoch %llu drained with %zu unanswered "
                      "submissions",
                      static_cast<unsigned long long>(epoch_),
                      pendingReplies_.size());
        closedTotals_.submitted += m.submitted;
        closedTotals_.accepted += m.accepted;
        closedTotals_.rejected += m.rejected;
        closedTotals_.negotiated += m.negotiated;
        closedTotals_.completed += m.completed;
        live_ = Counters{};
        const std::uint64_t finished = epoch_;
        for (auto &line : event_residue) {
            EventMsg e;
            e.epoch = finished;
            e.line = std::move(line);
            postOutgoing(kBroadcast, std::move(e));
        }
        const std::string fp = m.fingerprint();
        logLine("epoch %llu drained: %llu submitted, %llu accepted, "
                "%llu completed, fingerprint %s",
                static_cast<unsigned long long>(finished),
                static_cast<unsigned long long>(m.submitted),
                static_cast<unsigned long long>(m.accepted),
                static_cast<unsigned long long>(m.completed),
                fp.c_str());
        if (drainRequester_ != kNoSession) {
            DrainDone d;
            d.epoch = finished;
            d.submitted = m.submitted;
            d.accepted = m.accepted;
            d.completed = m.completed;
            d.fingerprint = fp;
            postOutgoing(drainRequester_, std::move(d));
        }
        drainPending_ = false;
        drainRequester_ = kNoSession;
        shutdown = shutdownAfterDrain_;
        if (reconfigPending_) {
            config_ = reconfigNext_;
            mix_ = epochMix(config_);
            ReconfigAck a;
            a.epoch = finished + 1;
            postOutgoing(reconfigRequester_, std::move(a));
            reconfigPending_ = false;
            reconfigRequester_ = kNoSession;
        }
        epochsCompleted_.fetch_add(1, std::memory_order_relaxed);
        if (!shutdown) {
            ++epoch_;
            openEpochLocked();
            state_ = DaemonState::Running;
        }
    }
    wakeNetwork();
    return shutdown;
}

void
QosDaemon::postOutgoing(std::uint64_t session, Message m)
{
    outbox_.push_back(Outgoing{session, std::move(m)});
}

void
QosDaemon::wakeNetwork()
{
    const char byte = 'w';
    // Non-blocking pipe: EAGAIN means a wakeup is already pending.
    (void)!::write(wakeupPipe_[1], &byte, 1);
}

// --- network thread -------------------------------------------------

void
QosDaemon::run()
{
    cmpqos_assert(started_, "run() before start()");
    engineThread_ = std::thread([this] { engineMain(); });

    std::vector<pollfd> fds;
    int flush_rounds = 0;
    for (;;) {
        deliverOutbox();

        // Prune dead/finished sessions.
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            Session &s = **it;
            if (s.closing && !s.wantsWrite()) {
                if (s.subscribed)
                    subscriberCount_.fetch_sub(
                        1, std::memory_order_relaxed);
                it = sessions_.erase(it);
            } else {
                ++it;
            }
        }

        const bool stopping = stop_.load(std::memory_order_acquire);
        if (stopping) {
            const bool pending = std::any_of(
                sessions_.begin(), sessions_.end(),
                [](const auto &s) { return s->wantsWrite(); });
            // Bounded farewell: give stalled peers ~500 poll rounds
            // of 10ms each, then leave (no wall clock involved).
            if (!pending || ++flush_rounds > 500)
                break;
        }

        fds.clear();
        fds.push_back({wakeupPipe_[0], POLLIN, 0});
        fds.push_back({shutdownPipe_[0], POLLIN, 0});
        const std::size_t listen_at = fds.size();
        if (!stopping)
            fds.push_back({listenFd_, POLLIN, 0});
        const std::size_t sessions_at = fds.size();
        // Sessions acceptPending() adds below are NOT in fds yet;
        // bound the revents loop to the ones actually polled or a
        // fresh connection reads a pollfd slot past the end (garbage
        // revents can look like POLLERR and kill the newcomer).
        const std::size_t polled_sessions = sessions_.size();
        for (const auto &s : sessions_) {
            short events = POLLIN;
            if (s->wantsWrite())
                events |= POLLOUT;
            fds.push_back({s->fd(), events, 0});
        }

        const int rc =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   stopping ? 10 : -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            cmpqos_fatal("poll: %s", std::strerror(errno));
        }

        if (fds[0].revents & POLLIN)
            drainPipe(wakeupPipe_[0]);
        if (fds[1].revents & POLLIN) {
            drainPipe(shutdownPipe_[0]);
            logLine("shutdown requested; draining");
            beginDrain(kNoSession, true, false);
        }
        if (!stopping && (fds[listen_at].revents & POLLIN))
            acceptPending();

        for (std::size_t i = 0; i < polled_sessions; ++i) {
            Session &s = *sessions_[i];
            const short revents = fds[sessions_at + i].revents;
            if (revents & POLLIN) {
                if (!s.readAvailable()) {
                    if (s.bufferedInput() > 0)
                        ++connStats_.midFrameDisconnects;
                    // Dead peer: drop pending tx too, else the session
                    // survives the prune and this branch re-counts it
                    // every round the HUP stays readable.
                    s.abortConnection();
                    continue;
                }
                handleSession(s);
            } else if (revents & (POLLERR | POLLHUP)) {
                if (s.bufferedInput() > 0)
                    ++connStats_.midFrameDisconnects;
                s.abortConnection();
                continue;
            }
            if (s.wantsWrite() && !s.flushSome()) {
                // Write-side detection of a vanished peer: a partial
                // frame left behind still counts as mid-frame death.
                if (s.bufferedInput() > 0)
                    ++connStats_.midFrameDisconnects;
                s.abortConnection();
            }
        }
    }
    engineThread_.join();
    // One last pass so DrainDone sent in the final epoch reaches the
    // outbox even if the engine finished after our last delivery.
    deliverOutbox();
    sessions_.clear();
    logLine("exit: %llu connections, %llu malformed frames, %llu "
            "mid-frame disconnects, %llu epochs",
            static_cast<unsigned long long>(connStats_.accepted),
            static_cast<unsigned long long>(connStats_.malformed),
            static_cast<unsigned long long>(
                connStats_.midFrameDisconnects),
            static_cast<unsigned long long>(epochsCompleted()));
}

void
QosDaemon::acceptPending()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return;
            cmpqos_warn("accept: %s", std::strerror(errno));
            return;
        }
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        ++connStats_.accepted;
        sessions_.push_back(std::make_unique<Session>(
            fd, nextSessionId_++, opts_.maxFrame));
    }
}

void
QosDaemon::handleSession(Session &s)
{
    while (!s.closing) {
        DecodeResult r = s.nextMessage();
        if (r.status == DecodeResult::Status::NeedMore)
            break;
        if (r.status == DecodeResult::Status::Error) {
            ++connStats_.malformed;
            logLine("session %llu: dropped (%s)",
                    static_cast<unsigned long long>(s.id()),
                    r.error.c_str());
            ErrorMsg e;
            e.code =
                static_cast<std::uint32_t>(ProtoError::Malformed);
            e.message = r.error;
            s.enqueue(e);
            s.closing = true;
            break;
        }
        dispatch(s, r.message);
        if (s.pendingTxBytes() > maxPendingTx) {
            logLine("session %llu: dropped (transmit backlog)",
                    static_cast<unsigned long long>(s.id()));
            s.closing = true;
        }
    }
}

void
QosDaemon::dispatch(Session &s, const Message &m)
{
    if (const auto *hello = std::get_if<Hello>(&m)) {
        handleHello(s, *hello);
        return;
    }
    if (!s.greeted) {
        ErrorMsg e;
        e.code =
            static_cast<std::uint32_t>(ProtoError::BadHandshake);
        e.message = "hello required first";
        s.enqueue(e);
        s.closing = true;
        return;
    }
    if (const auto *submit = std::get_if<Submit>(&m)) {
        handleSubmit(s, *submit);
    } else if (const auto *sub = std::get_if<Subscribe>(&m)) {
        const bool want = sub->enable != 0;
        if (want != s.subscribed) {
            s.subscribed = want;
            subscriberCount_.fetch_add(want ? 1 : -1,
                                       std::memory_order_relaxed);
        }
        SubscribeAck ack;
        ack.enabled = want ? 1 : 0;
        s.enqueue(ack);
    } else if (std::holds_alternative<Status>(m)) {
        handleStatus(s);
    } else if (const auto *drain = std::get_if<Drain>(&m)) {
        handleDrain(s, *drain);
    } else if (const auto *reconf = std::get_if<Reconfig>(&m)) {
        handleReconfig(s, *reconf);
    } else {
        // A server-to-client message from a client: protocol abuse.
        ErrorMsg e;
        e.code = static_cast<std::uint32_t>(ProtoError::Malformed);
        e.message = std::string("unexpected message '") +
                    messageOpName(m) + "'";
        s.enqueue(e);
        s.closing = true;
    }
}

void
QosDaemon::handleHello(Session &s, const Hello &m)
{
    if (s.greeted) {
        ErrorMsg e;
        e.code =
            static_cast<std::uint32_t>(ProtoError::BadHandshake);
        e.message = "duplicate hello";
        s.enqueue(e);
        s.closing = true;
        return;
    }
    if (m.version != protocolVersion) {
        ErrorMsg e;
        e.code =
            static_cast<std::uint32_t>(ProtoError::BadHandshake);
        e.message = "protocol version " + std::to_string(m.version) +
                    " unsupported (daemon speaks " +
                    std::to_string(protocolVersion) + ")";
        s.enqueue(e);
        s.closing = true;
        return;
    }
    if (m.client.size() > maxHelloClientName) {
        ErrorMsg e;
        e.code =
            static_cast<std::uint32_t>(ProtoError::BadHandshake);
        e.message = "client name longer than " +
                    std::to_string(maxHelloClientName) + " bytes";
        s.enqueue(e);
        s.closing = true;
        return;
    }
    s.greeted = true;
    s.clientName = m.client;
    HelloAck ack;
    {
        MutexLock lock(mu_);
        ack.epoch = epoch_;
        ack.nodes = static_cast<std::uint32_t>(config_.nodes);
        ack.quantum = config_.quantum;
        ack.seed = config_.seed;
    }
    ack.server = buildInfoLine("qosd");
    s.enqueue(ack);
}

void
QosDaemon::handleSubmit(Session &s, const Submit &m)
{
    SubmitReply fail;
    fail.ticket = m.ticket;
    if (m.tier >= numQosTiers) {
        fail.error =
            "bad tier " + std::to_string(m.tier) + " (want 0..2)";
        s.enqueue(fail);
        return;
    }
    if (!BenchmarkRegistry::has(m.benchmark)) {
        fail.error = "unknown benchmark '" + m.benchmark + "'";
        s.enqueue(fail);
        return;
    }
    MutexLock lock(mu_);
    if (state_ != DaemonState::Running) {
        fail.error = "epoch draining; retry after the drain";
        s.enqueue(fail);
        return;
    }
    const auto tier = static_cast<QosTier>(m.tier);
    const InstCount instructions =
        m.instructions != 0 ? m.instructions : config_.instructions;
    Cycle time = 0;
    if (m.time != 0)
        time = std::max(m.time, lastTime_);
    else if (anySubmitted_)
        time = lastTime_ +
               std::min(config_.arrivalGap, maxCycle - lastTime_);
    // Refused like an unknown benchmark: the engine never sees an
    // arrival whose cycle arithmetic could overflow.
    fail.error = arrivalBoundsError(time, instructions);
    if (!fail.error.empty()) {
        s.enqueue(fail);
        return;
    }
    lastTime_ = time;
    anySubmitted_ = true;

    // Journal first, then queue, under one critical section: journal
    // order IS placement order (the engine consumes in push order),
    // which is what makes the journal a faithful replay script.
    journal_->append(time, m.benchmark, tier, instructions);
    pendingReplies_.push_back(PendingSubmit{s.id(), m.ticket, time});
    ClusterArrival arrival;
    arrival.time = time;
    arrival.tier = tier;
    arrival.request = tierRequest(mix_, tier, m.benchmark);
    arrival.instructions = instructions;
    const bool pushed = queue_->push(arrival);
    cmpqos_assert(pushed, "arrival queue closed while Running");
}

void
QosDaemon::handleStatus(Session &s)
{
    StatusReply r;
    {
        MutexLock lock(mu_);
        r.epoch = epoch_;
        r.state = static_cast<std::uint8_t>(state_);
        r.submitted = closedTotals_.submitted + live_.submitted;
        r.accepted = closedTotals_.accepted + live_.accepted;
        r.rejected = closedTotals_.rejected + live_.rejected;
        r.negotiated = closedTotals_.negotiated + live_.negotiated;
        r.completed = closedTotals_.completed;
        r.virtualTime = liveVirtualTime_;
    }
    r.sessions = static_cast<std::uint32_t>(sessions_.size());
    s.enqueue(r);
}

bool
QosDaemon::beginDrain(std::uint64_t session, bool shutdown,
                      bool reconfig_after)
{
    BlockingArrivalQueue *queue = nullptr;
    {
        MutexLock lock(mu_);
        if (state_ != DaemonState::Running || drainPending_)
            return false;
        state_ = DaemonState::Draining;
        drainPending_ = true;
        drainRequester_ = reconfig_after ? kNoSession : session;
        if (shutdown)
            shutdownAfterDrain_ = true;
        queue = queue_.get();
    }
    queue->close();
    return true;
}

void
QosDaemon::handleDrain(Session &s, const Drain &m)
{
    if (!beginDrain(s.id(), m.shutdown != 0, false)) {
        ErrorMsg e;
        e.code = static_cast<std::uint32_t>(ProtoError::BadReconfig);
        e.message = "a drain is already in progress";
        s.enqueue(e);
        return;
    }
    logLine("session %llu: drain%s requested",
            static_cast<unsigned long long>(s.id()),
            m.shutdown != 0 ? "+shutdown" : "");
}

void
QosDaemon::handleReconfig(Session &s, const Reconfig &m)
{
    BlockingArrivalQueue *queue = nullptr;
    {
        MutexLock lock(mu_);
        ReconfigAck nack;
        nack.epoch = epoch_;
        if (state_ != DaemonState::Running || drainPending_ ||
            reconfigPending_) {
            nack.error = "a drain or reconfig is already in progress";
            s.enqueue(nack);
            return;
        }
        EpochConfig next = config_;
        std::string err;
        if (!applyEpochDirectives(next, m.directives, err)) {
            nack.error = err;
            s.enqueue(nack);
            return;
        }
        reconfigPending_ = true;
        reconfigRequester_ = s.id();
        reconfigNext_ = next;
        state_ = DaemonState::Draining;
        drainPending_ = true;
        drainRequester_ = kNoSession;
        queue = queue_.get();
    }
    queue->close();
    logLine("session %llu: reconfig '%s' accepted; rotating epoch",
            static_cast<unsigned long long>(s.id()),
            m.directives.c_str());
}

void
QosDaemon::deliverOutbox()
{
    std::vector<Outgoing> batch;
    {
        MutexLock lock(mu_);
        batch.swap(outbox_);
    }
    if (batch.empty())
        return;
    for (auto &o : batch) {
        if (o.session == kBroadcast) {
            for (const auto &s : sessions_) {
                if (s->greeted && s->subscribed && !s->closing)
                    s->enqueue(o.message);
            }
        } else if (Session *s = findSession(o.session);
                   s != nullptr && !s->closing) {
            s->enqueue(o.message);
        }
    }
    for (const auto &s : sessions_) {
        if (s->pendingTxBytes() > maxPendingTx) {
            logLine("session %llu: dropped (transmit backlog)",
                    static_cast<unsigned long long>(s->id()));
            s->closing = true;
        }
        if (s->wantsWrite() && !s->flushSome())
            s->closing = true;
    }
}

Session *
QosDaemon::findSession(std::uint64_t id)
{
    for (const auto &s : sessions_) {
        if (s->id() == id)
            return s.get();
    }
    return nullptr;
}

void
QosDaemon::logLine(const char *fmt, ...) const
{
    if (opts_.quiet)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::printf("[qosd] ");
    std::vprintf(fmt, args);
    std::printf("\n");
    std::fflush(stdout);
    va_end(args);
}

} // namespace cmpqos
