/**
 * @file
 * Frame transport over local stream sockets.
 *
 * Transport is the seam the whole distributed tier is built on: the
 * coordinator, the shard worker, and every test talk in frames
 * through this interface, never in raw bytes. Two concrete shapes
 * cover production and testing:
 *  - SocketTransport over an AF_UNIX stream socket: one worker
 *    process per connection (tools/shard_worker), or an in-process
 *    worker thread over a socketpair (transportPair()).
 *  - FaultyTransport (net/fault_injector.hpp) wrapping any inner
 *    transport with deterministic, seeded fault injection — which is
 *    how every recovery path is exercised without flaky real
 *    crashes.
 *
 * Deadline semantics: recv() with a non-negative timeout waits that
 * long for the *start* of a frame; once a header byte has arrived
 * the frame must complete within the same deadline, and a mid-frame
 * timeout poisons the stream (the connection is closed, since a
 * half-read frame can never be resynchronized). A timeout while
 * waiting for the first byte leaves the connection usable — the
 * retry path depends on that distinction.
 *
 * Thread safety: a Transport is full duplex — one send() and one
 * recv() may run concurrently (the coordinator sends under its
 * worker lock while one waiter receives), but two sends or two
 * receives must be serialized by the caller. close() may be called
 * from any thread to unblock a pending recv() (shutdown(2) under the
 * hood), which is how in-process workers stop deterministically.
 */

#ifndef A3_NET_TRANSPORT_HPP
#define A3_NET_TRANSPORT_HPP

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "net/frame.hpp"
#include "net/net_error.hpp"

namespace a3 {

/** Bidirectional, ordered, reliable frame channel. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Serialize and send one frame (blocking). */
    virtual NetStatus send(const Frame &frame) = 0;

    /**
     * Receive one validated frame. `timeoutSeconds` < 0 blocks
     * indefinitely; >= 0 bounds the wait for the frame to start.
     * Framing violations return typed failures (Malformed,
     * BadChecksum, BadVersion); orderly peer close returns Closed.
     */
    virtual NetStatus recv(Frame &out, double timeoutSeconds) = 0;

    /**
     * Shut the channel down, unblocking any pending recv() on it.
     * Safe to call from another thread and idempotent.
     */
    virtual void close() = 0;

    /** Channel has not been closed by either side. */
    virtual bool isOpen() const = 0;
};

/** Transport over one connected stream-socket file descriptor. */
class SocketTransport final : public Transport
{
  public:
    /** Adopt a connected socket fd (owned; closed on destruction). */
    explicit SocketTransport(int fd);
    ~SocketTransport() override;

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    NetStatus send(const Frame &frame) override;
    NetStatus recv(Frame &out, double timeoutSeconds) override;
    void close() override;
    bool isOpen() const override { return !closed_.load(); }

    /**
     * Ship pre-encoded bytes verbatim — the fault injector's
     * corruption seam (a frame whose checksum no longer matches its
     * payload cannot be expressed through send()). Not for general
     * use: anything but a validly framed byte image desynchronizes
     * the peer by design.
     */
    NetStatus sendRawBytes(const std::uint8_t *data,
                           std::size_t size);

  private:
    /** Write exactly `size` bytes (EINTR-safe, SIGPIPE-free). */
    NetStatus sendAll(const std::uint8_t *data, std::size_t size);

    /**
     * Read exactly `size` bytes before `deadlineSeconds` (absolute
     * steady-clock seconds; < 0 means no deadline). `firstByte`
     * distinguishes the clean wait-for-frame timeout from the
     * stream-poisoning mid-frame one.
     */
    NetStatus recvAll(std::uint8_t *data, std::size_t size,
                      double deadlineSeconds, bool firstByte);

    int fd_ = -1;
    std::atomic<bool> closed_{false};
};

/** Listening AF_UNIX socket handing out accepted transports. */
class UnixServerSocket
{
  public:
    UnixServerSocket() = default;
    ~UnixServerSocket();

    UnixServerSocket(const UnixServerSocket &) = delete;
    UnixServerSocket &operator=(const UnixServerSocket &) = delete;

    /**
     * Bind and listen on `path` (an existing socket file is
     * unlinked first — stale paths from killed workers must not
     * block a restart).
     */
    NetStatus listenOn(const std::string &path);

    /**
     * Accept one connection; nullptr with a typed status on
     * timeout/failure. `timeoutSeconds` < 0 blocks indefinitely.
     */
    std::shared_ptr<Transport> accept(double timeoutSeconds,
                                      NetStatus &status);

    /** Stop listening and unlink the path (idempotent). */
    void close();

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

  private:
    int fd_ = -1;
    std::string path_;
};

/**
 * Connect to a worker's AF_UNIX socket, retrying until
 * `timeoutSeconds` elapses — a freshly spawned worker needs a
 * moment to create its listener, and the retry absorbs that race.
 */
std::shared_ptr<Transport> connectUnix(const std::string &path,
                                       double timeoutSeconds,
                                       NetStatus &status);

/**
 * Connected socketpair as two transports (client, server) — the
 * substrate for in-process workers and fault-injection tests.
 */
std::pair<std::shared_ptr<Transport>, std::shared_ptr<Transport>>
transportPair();

}  // namespace a3

#endif  // A3_NET_TRANSPORT_HPP
