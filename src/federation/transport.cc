#include "transport.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/wire_codec.hh"

namespace cmpqos
{

// --- in-process backend --------------------------------------------

bool
InprocLink::send(const std::string &payload)
{
    MutexLock lock(tx_->mu);
    if (tx_->closed) {
        error_ = "send on closed link";
        return false;
    }
    tx_->items.push_back(payload);
    tx_->cv.notify_one();
    return true;
}

bool
InprocLink::recv(std::string &payload)
{
    MutexLock lock(rx_->mu);
    while (rx_->items.empty() && !rx_->closed)
        rx_->cv.wait(lock);
    if (rx_->items.empty()) {
        error_.clear(); // clean close
        return false;
    }
    payload = std::move(rx_->items.front());
    rx_->items.pop_front();
    return true;
}

void
InprocLink::close()
{
    for (InprocQueue *q : {tx_.get(), rx_.get()}) {
        MutexLock lock(q->mu);
        q->closed = true;
        q->cv.notify_all();
    }
}

std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>>
makeInprocLinkPair()
{
    auto ab = std::make_shared<InprocQueue>();
    auto ba = std::make_shared<InprocQueue>();
    return {std::make_unique<InprocLink>(ab, ba),
            std::make_unique<InprocLink>(ba, ab)};
}

// --- socket backend ------------------------------------------------

UdsLink::UdsLink(int fd, std::size_t max_frame)
    : fd_(fd), maxFrame_(max_frame)
{
    cmpqos_assert(fd >= 0, "UdsLink needs a valid fd");
}

UdsLink::~UdsLink()
{
    close();
}

bool
UdsLink::send(const std::string &payload)
{
    if (fd_ < 0) {
        error_ = "send on closed link";
        return false;
    }
    cmpqos_assert(payload.size() >= 9 && payload.size() <= maxFrame_,
                  "refusing to send %zu-byte frame", payload.size());
    std::string frame;
    appendFrameLength(frame, static_cast<std::uint32_t>(payload.size()));
    frame += payload;

    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n =
            ::send(fd_, frame.data() + sent, frame.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error_ = std::string("send: ") + std::strerror(errno);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
UdsLink::recv(std::string &payload)
{
    std::string err;
    for (;;) {
        switch (extractFedFrame(rxBuffer_, payload, err, maxFrame_)) {
          case FedFrameStatus::Ok:
            return true;
          case FedFrameStatus::Error:
            error_ = err;
            return false;
          case FedFrameStatus::NeedMore:
            break;
        }
        if (fd_ < 0) {
            error_ = "recv on closed link";
            return false;
        }
        char chunk[65536];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error_ = std::string("recv: ") + std::strerror(errno);
            return false;
        }
        if (n == 0) {
            if (!rxBuffer_.empty()) {
                error_ = "peer closed mid-frame";
                return false;
            }
            error_.clear(); // clean close
            return false;
        }
        rxBuffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void
UdsLink::close()
{
    if (fd_ >= 0) {
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        fd_ = -1;
    }
}

std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>>
makeSocketLinkPair(std::size_t max_frame)
{
    int fds[2];
    const int rc = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
    cmpqos_assert(rc == 0, "socketpair: %s", std::strerror(errno));
    return {std::make_unique<UdsLink>(fds[0], max_frame),
            std::make_unique<UdsLink>(fds[1], max_frame)};
}

} // namespace cmpqos
