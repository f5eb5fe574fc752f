#include "client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace cmpqos
{

namespace
{

/** Connect retries after the first try, spaced ~50ms apart, so a
 *  just-started daemon has time to bind. */
constexpr int connectRetries = 100;

int
openSocket(const ClientOptions &opts, std::string &err)
{
    if (!opts.socketPath.empty()) {
        sockaddr_un addr{};
        if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
            err = "socket path too long: " + opts.socketPath;
            return -1;
        }
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return -1;
        }
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            err = "connect '" + opts.socketPath +
                  "': " + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        return fd;
    }
    if (opts.tcpPort <= 0) {
        err = "no transport: set a socket path or a TCP port";
        return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts.tcpPort));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = "connect 127.0.0.1:" + std::to_string(opts.tcpPort) +
              ": " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

QosClient::~QosClient()
{
    disconnect();
}

void
QosClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    rx_.clear();
    events_.clear();
}

bool
QosClient::connect(std::string &err)
{
    if (fd_ >= 0) {
        err = "already connected";
        return false;
    }
    for (int attempt = 0;; ++attempt) {
        fd_ = openSocket(opts_, err);
        if (fd_ >= 0)
            break;
        if (attempt >= connectRetries)
            return false;
        // qoslint:allow(wall-clock): host-side connect backoff while
        // the daemon binds its socket; the retry loop runs before any
        // submission exists, so it cannot influence simulation state
        // or the replay journal.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // JSONL mode is detected from the first byte the client sends, so
    // the Hello frame itself selects the mode — nothing extra needed.
    Hello hello;
    hello.client = opts_.clientName.substr(0, maxHelloClientName);
    if (!sendMessage(hello, err))
        return false;
    if (!awaitReply(serverInfo_, err)) {
        disconnect();
        return false;
    }
    if (serverInfo_.version != protocolVersion) {
        err = "daemon speaks protocol version " +
              std::to_string(serverInfo_.version) + ", client " +
              std::to_string(protocolVersion);
        disconnect();
        return false;
    }
    return true;
}

bool
QosClient::sendMessage(const Message &m, std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    const std::string frame = encodeMessage(m, opts_.mode);
    std::size_t off = 0;
    while (off < frame.size()) {
        // MSG_NOSIGNAL: a daemon that died mid-request must surface
        // as EPIPE, not SIGPIPE the caller.
        const ssize_t n = ::send(fd_, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            err = std::string("write: ") + std::strerror(errno);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
QosClient::readMore(std::string &err, int timeout_ms)
{
    pollfd p{fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0) {
        err = std::string("poll: ") + std::strerror(errno);
        return false;
    }
    if (rc == 0) {
        err = "timeout";
        return false;
    }
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
        err = std::string("read: ") + std::strerror(errno);
        return false;
    }
    if (n == 0) {
        err = "daemon closed the connection";
        return false;
    }
    rx_.append(buf, static_cast<std::size_t>(n));
    return true;
}

bool
QosClient::nextMessage(Message &out, std::string &err, int timeout_ms)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    for (;;) {
        if (!rx_.empty()) {
            DecodeResult r =
                decodeFrame(rx_, opts_.mode, defaultMaxFrame);
            if (r.consumed > 0)
                rx_.erase(0, r.consumed);
            if (r.status == DecodeResult::Status::Ok) {
                out = std::move(r.message);
                return true;
            }
            if (r.status == DecodeResult::Status::Error) {
                err = "protocol error from daemon: " + r.error;
                return false;
            }
        }
        if (!readMore(err, timeout_ms))
            return false;
    }
}

template <typename T>
bool
QosClient::awaitReply(T &out, std::string &err)
{
    for (;;) {
        Message m;
        if (!nextMessage(m, err))
            return false;
        if (auto *reply = std::get_if<T>(&m)) {
            out = std::move(*reply);
            return true;
        }
        if (auto *event = std::get_if<EventMsg>(&m)) {
            events_.push_back(std::move(*event));
            continue;
        }
        if (auto *error = std::get_if<ErrorMsg>(&m)) {
            err = "daemon error " + std::to_string(error->code) +
                  ": " + error->message;
            return false;
        }
        err = std::string("unexpected reply '") + messageOpName(m) +
              "'";
        return false;
    }
}

bool
QosClient::submit(const Submit &request, SubmitReply &reply,
                  std::string &err)
{
    if (!sendMessage(request, err))
        return false;
    if (!awaitReply(reply, err))
        return false;
    if (reply.ticket != request.ticket) {
        err = "reply ticket " + std::to_string(reply.ticket) +
              " does not match request ticket " +
              std::to_string(request.ticket);
        return false;
    }
    return true;
}

bool
QosClient::status(StatusReply &out, std::string &err)
{
    return sendMessage(Status{}, err) && awaitReply(out, err);
}

bool
QosClient::drain(bool shutdown, DrainDone &out, std::string &err)
{
    Drain d;
    d.shutdown = shutdown ? 1 : 0;
    return sendMessage(d, err) && awaitReply(out, err);
}

bool
QosClient::reconfig(const std::string &directives, ReconfigAck &out,
                    std::string &err)
{
    Reconfig r;
    r.directives = directives;
    return sendMessage(r, err) && awaitReply(out, err);
}

bool
QosClient::subscribe(bool enable, std::string &err)
{
    Subscribe s;
    s.enable = enable ? 1 : 0;
    SubscribeAck ack;
    if (!sendMessage(s, err) || !awaitReply(ack, err))
        return false;
    if ((ack.enabled != 0) != enable) {
        err = "daemon did not honour the subscription change";
        return false;
    }
    return true;
}

std::optional<EventMsg>
QosClient::takeEvent()
{
    if (events_.empty())
        return std::nullopt;
    EventMsg e = std::move(events_.front());
    events_.pop_front();
    return e;
}

} // namespace cmpqos
