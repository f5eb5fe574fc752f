/**
 * @file
 * Transport abstraction for the federation's shard links.
 *
 * A Link moves whole encoded payloads (see message.hh) between the
 * coordinator and one shard controller. Two backends:
 *
 *  - InprocLink: a pair of cross-linked blocking queues, for running
 *    every shard inside one process (the default, and the baseline
 *    the determinism matrix compares against).
 *
 *  - UdsLink: a SOCK_STREAM Unix-domain socket carrying
 *    length-prefixed frames (`[u32 len][payload]`, the same framing
 *    as the admission service). Used both in-process over
 *    socketpair() — so the sanitizer lanes exercise the real fd
 *    path — and across processes when shards run as spawned
 *    `federation_shard` workers.
 *
 * Both backends block until a payload is available or the peer goes
 * away; there are deliberately no host-time timeouts, so transport
 * waits cannot perturb simulation determinism (`qoslint detlint`
 * enforces the absence of clock calls in this directory). Fault
 * injection happens ABOVE the transport, in the coordinator's send
 * path, from the seeded FaultPlan — the link itself is reliable and
 * ordered.
 */

#ifndef CMPQOS_FEDERATION_TRANSPORT_HH
#define CMPQOS_FEDERATION_TRANSPORT_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "common/annotations.hh"
#include "federation/message.hh"

namespace cmpqos
{

/**
 * One endpoint of a reliable, ordered, bidirectional payload pipe.
 */
class Link
{
  public:
    virtual ~Link() = default;

    /**
     * Ship one encoded payload to the peer. Returns false if the
     * link is closed or poisoned (details in error()).
     */
    virtual bool send(const std::string &payload) = 0;

    /**
     * Block until a payload arrives. Returns false on clean close
     * (peer shut down, empty error()) or on a poisoned stream
     * (error() set — e.g. a malformed frame on the socket backend).
     */
    virtual bool recv(std::string &payload) = 0;

    /** Wake any blocked recv() with "closed"; further sends fail. */
    virtual void close() = 0;

    /** What broke, when send()/recv() returned false. */
    virtual const std::string &error() const = 0;
};

/** Shared state behind one direction of an in-process link pair. */
struct InprocQueue
{
    Mutex mu;
    std::condition_variable_any cv;
    std::deque<std::string> items CMPQOS_GUARDED_BY(mu);
    bool closed CMPQOS_GUARDED_BY(mu) = false;
};

/**
 * In-process backend: endpoint A's send queue is endpoint B's recv
 * queue and vice versa. Create with makeInprocLinkPair().
 */
class InprocLink : public Link
{
  public:
    InprocLink(std::shared_ptr<InprocQueue> tx,
               std::shared_ptr<InprocQueue> rx)
        : tx_(std::move(tx)), rx_(std::move(rx))
    {
    }

    bool send(const std::string &payload) override;
    bool recv(std::string &payload) override;
    void close() override;
    const std::string &error() const override { return error_; }

  private:
    std::shared_ptr<InprocQueue> tx_;
    std::shared_ptr<InprocQueue> rx_;
    std::string error_;
};

/** Two cross-linked in-process endpoints. */
std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>>
makeInprocLinkPair();

/**
 * Unix-domain-socket backend over an owned stream fd. Framing is
 * `[u32 len][payload]`; a malformed length poisons the link. recv()
 * retries EINTR and handles partial reads; send() loops until the
 * whole frame is written.
 */
class UdsLink : public Link
{
  public:
    /** Takes ownership of @p fd (closed on destruction). */
    explicit UdsLink(int fd, std::size_t max_frame = fedMaxFrame);
    ~UdsLink() override;

    bool send(const std::string &payload) override;
    bool recv(std::string &payload) override;
    void close() override;
    const std::string &error() const override { return error_; }

  private:
    int fd_;
    std::size_t maxFrame_;
    std::string rxBuffer_;
    std::string error_;
};

/** A connected UdsLink pair over socketpair(AF_UNIX, SOCK_STREAM).
 *  Aborts on resource exhaustion (fd limit). */
std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>>
makeSocketLinkPair(std::size_t max_frame = fedMaxFrame);

} // namespace cmpqos

#endif // CMPQOS_FEDERATION_TRANSPORT_HH
