// Byte-stream transport abstraction under the wire protocol.
//
// The prediction service originally talked to FdHandle directly; pulling the
// byte-stream operations behind Transport lets the client swap the real
// socket for a fault-injecting wrapper (tests/support/net/fault_injection.h)
// and gives one place to enforce per-call deadlines. Failures surface as typed exceptions
// so callers can tell a deadline miss (retry) from a dead peer (reconnect):
//
//   TransportError            base of all transport-layer failures
//   ├── TimeoutError          send/recv deadline elapsed
//   └── ConnectionError       refused connect, peer reset, mid-message EOF
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>

#include "net/socket.h"

namespace cs2p {

/// Base class of transport-layer failures.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A send/recv deadline elapsed before the transfer completed.
class TimeoutError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// The peer refused, reset, or closed the connection mid-message.
class ConnectionError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// A reliable byte stream. Implementations must deliver whole buffers:
/// send() transmits all of `data` or throws; recv() fills all of `data`,
/// returns false on clean EOF at a message boundary (0 bytes read), and
/// throws on errors or mid-buffer EOF — the same contract as
/// send_all/recv_all in net/socket.h.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual void send(std::span<const std::byte> data) = 0;
  virtual bool recv(std::span<std::byte> data) = 0;

  /// Forcibly tears the stream down (both directions), waking any thread
  /// blocked on it. Subsequent operations fail with ConnectionError.
  virtual void shutdown() noexcept {}
};

/// Per-call deadlines in milliseconds; 0 = block indefinitely.
struct TransportDeadlines {
  int recv_timeout_ms = 0;
  int send_timeout_ms = 0;
};

/// Transport over an owned TCP socket with optional poll-based deadlines
/// (the descriptor is switched to non-blocking; every wait goes through
/// poll(2) so a deadline miss raises TimeoutError instead of hanging).
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(FdHandle fd, TransportDeadlines deadlines = {});

  void send(std::span<const std::byte> data) override;
  bool recv(std::span<std::byte> data) override;
  void shutdown() noexcept override;

  const FdHandle& fd() const noexcept { return fd_; }

 private:
  FdHandle fd_;
  TransportDeadlines deadlines_;
};

/// Opens a fresh transport to a peer; invoked by PredictionClient on every
/// (re)connect. Throws ConnectionError (or std::system_error) on failure.
using TransportFactory = std::function<std::unique_ptr<Transport>()>;

/// Factory for deadline-guarded TCP transports to 127.0.0.1:`port`.
TransportFactory loopback_connector(std::uint16_t port,
                                    TransportDeadlines deadlines = {});

}  // namespace cs2p
