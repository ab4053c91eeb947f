#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace nacu::net {
Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(const void* data, std::size_t n) const {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (sent == 0) {
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

void Socket::shutdown_send() const noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_WR);
  }
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameBuffer::Fill FrameBuffer::fill(const Socket& socket) {
  // Room for the whole frame whose prefix is buffered, else the initial
  // size. Compacting moves only the unconsumed tail — a partial frame.
  std::size_t want = kInitialBytes;
  if (end_ - begin_ >= kLengthPrefixBytes) {
    std::uint32_t length = 0;
    std::memcpy(&length, bytes_.data() + begin_, kLengthPrefixBytes);
    want = std::max(want, kLengthPrefixBytes + length);
  }
  if (begin_ > 0) {
    std::memmove(bytes_.data(), bytes_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (bytes_.size() < want) {
    bytes_.resize(want);
  }
  for (;;) {
    const ssize_t got =
        ::recv(socket.fd(), bytes_.data() + end_, bytes_.size() - end_, 0);
    if (got > 0) {
      end_ += static_cast<std::size_t>(got);
      return end_ == bytes_.size() ? Fill::kFilled : Fill::kSome;
    }
    if (got < 0 && errno == EINTR) {
      continue;
    }
    return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)
               ? Fill::kWouldBlock
               : Fill::kClosed;
  }
}

FrameBuffer::Next FrameBuffer::next(std::span<const std::uint8_t>& payload,
                                    std::size_t max_frame_bytes) {
  if (end_ - begin_ < kLengthPrefixBytes) {
    return Next::kNeedMore;
  }
  std::uint32_t length = 0;
  std::memcpy(&length, bytes_.data() + begin_, kLengthPrefixBytes);
  if (length == 0 || length > max_frame_bytes) {
    return Next::kBroken;
  }
  if (end_ - begin_ - kLengthPrefixBytes < length) {
    return Next::kNeedMore;
  }
  payload = {bytes_.data() + begin_ + kLengthPrefixBytes, length};
  begin_ += kLengthPrefixBytes + length;
  return Next::kFrame;
}

Socket listen_loopback(std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Socket{};
  }
  Socket sock{fd};
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, SOMAXCONN) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Socket{};
  }
  bound_port = ntohs(bound.sin_port);
  return sock;
}

Socket accept_nonblocking(const Socket& listener) {
  int fd = -1;
  do {
    fd = ::accept4(listener.fd(), nullptr, nullptr, SOCK_NONBLOCK);
  } while (fd < 0 && (errno == EINTR || errno == ECONNABORTED));
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return Socket{fd};
}

Socket connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Socket{};
  }
  Socket sock{fd};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Socket{};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

}  // namespace nacu::net
