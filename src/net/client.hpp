// Client side of the NACU wire protocol (wire.hpp) over loopback TCP.
//
// A Client is one connection: connect, read the server's Hello (which
// pins the datapath fixed-point format raw values must live on), then
// pipeline requests with the send_* calls and collect responses with
// read_response() — responses arrive in submission order, each tagged
// with the id its send_* returned. call() wraps one request/response
// round trip for convenience; the load generator (bench_e2e) uses the
// split API to keep many requests in flight per connection.
//
// Not internally synchronised: one Client per thread (the bench's model),
// or one sender plus one reader thread, whose send and read paths touch
// disjoint state. close_send() half-closes the socket — the server
// reads EOF, drains every response still owed, then closes; this is how
// a closed-loop client participates in a graceful drain.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batch_nacu.hpp"
#include "fixedpoint/fixed.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace nacu::net {

class Client {
 public:
  /// Connect to 127.0.0.1:@p port and read the Hello. valid() is false
  /// (and every other call a no-op) when either step failed.
  explicit Client(std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return valid_; }
  /// The server's datapath format, from the Hello.
  [[nodiscard]] fp::Format format() const noexcept { return format_; }

  /// Pipeline one request; returns its id (sequential from 1), or 0 when
  /// the send failed (connection gone).
  [[nodiscard]] std::uint64_t send_submit(core::BatchNacu::Function function,
                                          std::span<const fp::Fixed> input,
                                          const WireSubmitOptions& options = {});
  [[nodiscard]] std::uint64_t send_softmax(
      std::span<const fp::Fixed> logits,
      const WireSubmitOptions& options = {});
  [[nodiscard]] std::uint64_t send_mlp(std::span<const double> input,
                                       const WireSubmitOptions& options = {});

  struct Response {
    std::uint64_t id = 0;
    ErrorCode error = ErrorCode::kNone;  ///< kNone = success
    std::string message;                 ///< diagnostic text on error
    std::vector<fp::Fixed> values;       ///< ResultFixed payload
    std::vector<double> doubles;         ///< ResultF64 payload
    [[nodiscard]] bool ok() const noexcept { return error == ErrorCode::kNone; }
  };
  /// Next response off the wire, blocking; nullopt once the server has
  /// closed (or the stream broke).
  [[nodiscard]] std::optional<Response> read_response();

  /// One synchronous activation round trip; throws std::runtime_error on
  /// any failure (tests use it where a typed error is itself the bug).
  [[nodiscard]] std::vector<fp::Fixed> call(core::BatchNacu::Function function,
                                            std::span<const fp::Fixed> input);

  /// Half-close: tells the server this client is done submitting, while
  /// responses still owed keep arriving (read_response until nullopt).
  void close_send() { socket_.shutdown_send(); }
  void close() { socket_.close(); }

  /// Escape hatch for protocol-robustness tests: the raw socket, for
  /// writing only — every read goes through the reassembly buffer.
  [[nodiscard]] Socket& socket() noexcept { return socket_; }

 private:
  [[nodiscard]] std::uint64_t send(const std::vector<std::uint8_t>& frame);
  /// The next frame's payload, blocking (valid until the next read);
  /// nullopt once the stream ended or broke.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> read_payload();

  Socket socket_;
  FrameBuffer in_;
  bool valid_ = false;
  fp::Format format_{4, 11};
  std::uint64_t next_id_ = 1;
};

}  // namespace nacu::net
