/**
 * @file
 * One client connection to qosd: owns the fd, the receive/transmit
 * buffers and the per-connection codec state (wire mode, handshake
 * progress, event subscription). Pure plumbing — what the messages
 * MEAN is the daemon's business; the session only frames bytes.
 *
 * All methods run on the daemon's network thread. Messages produced
 * on the engine thread travel through the daemon's outbox and are
 * enqueued here by the network thread only, so a session needs no
 * locking of its own.
 */

#ifndef CMPQOS_SERVICE_SESSION_HH
#define CMPQOS_SERVICE_SESSION_HH

#include <cstdint>
#include <string>

#include "service/protocol.hh"

namespace cmpqos
{

/** One connected client. */
class Session
{
  public:
    /** Takes ownership of @p fd (closed on destruction). */
    Session(int fd, std::uint64_t id, std::size_t max_frame);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    int fd() const { return fd_; }
    std::uint64_t id() const { return id_; }

    /** Read whatever the socket has; false = peer closed or fatal
     *  socket error (drop the session after flushing nothing). */
    bool readAvailable();

    /**
     * Decode the next complete message out of the receive buffer.
     * The first byte ever received picks the wire mode. NeedMore
     * means wait for more bytes; Error means the peer sent a
     * malformed/oversized frame and must be dropped (after the
     * daemon's parting ErrorMsg).
     */
    DecodeResult nextMessage();

    /** Encode @p m onto the transmit buffer (same mode the client
     *  speaks; before mode detection, binary — only possible for
     *  server-initiated sends, which do not happen pre-handshake). */
    void enqueue(const Message &m);

    /** Push transmit bytes; false = fatal socket error. */
    bool flushSome();

    /** The peer is gone (EOF / POLLHUP / fatal error): discard any
     *  unsent bytes so the prune pass removes the session immediately
     *  instead of waiting for a flush that can never happen. */
    void abortConnection()
    {
        tx_.clear();
        closing = true;
    }

    bool wantsWrite() const { return !tx_.empty(); }
    WireMode mode() const { return mode_; }
    /** Bytes of an incomplete frame still buffered (a non-empty value
     *  at disconnect means the peer died mid-frame). */
    std::size_t bufferedInput() const { return rx_.size(); }
    /** Unsent reply/event bytes (stalled-subscriber backpressure). */
    std::size_t pendingTxBytes() const { return tx_.size(); }

    // Protocol state the daemon tracks per connection.
    bool greeted = false;      ///< Hello received and acked.
    bool subscribed = false;   ///< Receiving EventMsg stream.
    bool closing = false;      ///< Drop once tx drains.
    std::string clientName;    ///< From Hello.

  private:
    int fd_;
    std::uint64_t id_;
    std::size_t maxFrame_;
    WireMode mode_ = WireMode::Binary;
    bool modeKnown_ = false;
    std::string rx_;
    std::string tx_;
};

} // namespace cmpqos

#endif // CMPQOS_SERVICE_SESSION_HH
