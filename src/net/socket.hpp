// Thin RAII wrappers over POSIX TCP sockets — everything the net layer
// needs and nothing more: a movable owning fd, a short-write loop that
// survives EINTR, a non-blocking loopback listener, and FrameBuffer, the
// reassembly buffer both ends read frames through.
//
// The server's sockets are non-blocking and driven by its event loops
// (net/server.cpp); the client's stay blocking. SIGPIPE is suppressed per
// send (MSG_NOSIGNAL) so a client that vanished mid response surfaces as
// an error return, never a process signal.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace nacu::net {

/// Owning fd (a socket, or the server's epoll/eventfd). Move-only; close
/// on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_{fd} {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_{other.fd_} { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Write exactly @p n bytes; false on any unrecoverable error
  /// (peer gone, fd closed under us). Retries EINTR.
  [[nodiscard]] bool send_all(const void* data, std::size_t n) const;

  /// Half-close: no more bytes will be sent (SHUT_WR) — the peer's next
  /// read sees EOF while our own reads keep draining. Used by clients to
  /// signal "done submitting" during drain tests.
  void shutdown_send() const noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Reassembly buffer for one inbound byte stream. fill() does one recv
/// into the free space; next() then hands out every complete frame in
/// place. It starts at kInitialBytes and grows only to fit the one frame
/// whose prefix it holds, so the largest it gets is prefix +
/// max_frame_bytes.
class FrameBuffer {
 public:
  static constexpr std::size_t kInitialBytes = 4096;

  enum class Fill {
    kSome,        ///< bytes arrived
    kFilled,      ///< bytes arrived and filled the free space: more may wait
    kWouldBlock,  ///< nothing to read yet (non-blocking sockets only)
    kClosed,      ///< EOF or a socket error
  };
  [[nodiscard]] Fill fill(const Socket& socket);

  enum class Next {
    kFrame,     ///< payload holds one frame, valid until the next fill()
    kNeedMore,  ///< no complete frame buffered
    kBroken,    ///< zero/oversized length prefix: the stream cannot be
                ///< resynchronised
  };
  [[nodiscard]] Next next(std::span<const std::uint8_t>& payload,
                          std::size_t max_frame_bytes);

  /// No bytes buffered — an EOF now falls between frames, not inside one.
  [[nodiscard]] bool empty() const noexcept { return begin_ == end_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t begin_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;    ///< one past the last received byte
};

/// Non-blocking listening socket on 127.0.0.1:@p port; port 0 picks an
/// ephemeral port. @p bound receives the port. Invalid on failure.
[[nodiscard]] Socket listen_loopback(std::uint16_t port, std::uint16_t& bound);

/// One connection pending on @p listener, as a non-blocking TCP_NODELAY
/// socket; invalid when none is waiting.
[[nodiscard]] Socket accept_nonblocking(const Socket& listener);

/// Blocking connect to 127.0.0.1:port. Invalid Socket on failure.
[[nodiscard]] Socket connect_loopback(std::uint16_t port);

}  // namespace nacu::net
