/**
 * @file
 * Synchronous client library for qosd — the API qosctl and the
 * service tests are built on.
 *
 * One QosClient is one connection. Requests are synchronous: each
 * call sends its message and pumps the socket until the matching
 * reply arrives; EventMsg lines that arrive in between (the
 * subscription stream is asynchronous by design) are buffered and
 * handed out through takeEvent(). Not thread-safe — one thread per
 * client, like one socket per client.
 *
 * Errors are returned, not thrown: every call yields false with a
 * message in @p err on socket failure, protocol error, or an
 * ErrorMsg from the daemon.
 */

#ifndef CMPQOS_SERVICE_CLIENT_HH
#define CMPQOS_SERVICE_CLIENT_HH

#include <deque>
#include <optional>
#include <string>

#include "service/protocol.hh"

namespace cmpqos
{

/** Connection options for QosClient. */
struct ClientOptions
{
    /** Unix-domain socket path (preferred). */
    std::string socketPath;
    /** Or loopback TCP port, used when socketPath is empty. */
    int tcpPort = 0;
    /** Wire mode to speak (JSONL is for debugging). */
    WireMode mode = WireMode::Binary;
    /** Free-form name reported in the handshake. */
    std::string clientName = "qos-client";
};

/** One synchronous connection to qosd. */
class QosClient
{
  public:
    QosClient() = default;
    explicit QosClient(ClientOptions opts) : opts_(std::move(opts)) {}
    ~QosClient();

    QosClient(const QosClient &) = delete;
    QosClient &operator=(const QosClient &) = delete;

    /** Connect and shake hands; serverInfo() is valid on success. */
    bool connect(std::string &err);

    bool connected() const { return fd_ >= 0; }

    /** The daemon's HelloAck (epoch, cluster shape, build line). */
    const HelloAck &serverInfo() const { return serverInfo_; }

    /** Submit one job and wait for its verdict. A SubmitReply whose
     *  error field is non-empty still returns true — the protocol
     *  exchange succeeded; the submission was refused. */
    bool submit(const Submit &request, SubmitReply &reply,
                std::string &err);

    bool status(StatusReply &out, std::string &err);

    /** Drain the current epoch (optionally shutting the daemon down)
     *  and wait for DrainDone with the epoch fingerprint. */
    bool drain(bool shutdown, DrainDone &out, std::string &err);

    bool reconfig(const std::string &directives, ReconfigAck &out,
                  std::string &err);

    bool subscribe(bool enable, std::string &err);

    /**
     * Block until any message arrives (reply-stream pump for
     * subscribers). @p timeout_ms < 0 waits forever; on timeout
     * returns false with err == "timeout".
     */
    bool nextMessage(Message &out, std::string &err,
                     int timeout_ms = -1);

    /** Pop a buffered EventMsg, oldest first. */
    std::optional<EventMsg> takeEvent();

    void disconnect();

  private:
    bool sendMessage(const Message &m, std::string &err);
    /** Read until @p want's alternative index arrives; events are
     *  buffered, ErrorMsg becomes an error return. */
    template <typename T>
    bool awaitReply(T &out, std::string &err);
    bool readMore(std::string &err, int timeout_ms);

    ClientOptions opts_;
    int fd_ = -1;
    std::string rx_;
    HelloAck serverInfo_;
    std::deque<EventMsg> events_;
};

} // namespace cmpqos

#endif // CMPQOS_SERVICE_CLIENT_HH
