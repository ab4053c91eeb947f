// The network edge: a TCP front-end over serve::InferenceServer.
//
// A fixed set of event loops — one per inference shard — owns every
// socket, so the thread count does not depend on the connection count.
// Loop 0 also owns the listener and deals accepted connections
// round-robin. Each loop waits in epoll on its non-blocking sockets plus
// an eventfd. A readable socket gets one recv into its reassembly buffer,
// then every complete frame in it is decoded and submitted, each
// reserving the connection's next response slot; rejections fill the slot
// with a typed error frame at once. A request's completion runs on a
// dispatcher thread: it encodes the result into its slot and wakes the
// loop (through the eventfd, unless the connection is already queued),
// which writes the ready prefix of the slots with one sendmsg. Responses
// thus leave each connection in submission order, however the shards
// batch, steal or retry. src/net/README.md walks the lifecycle.
//
// Graceful drain: shutdown() closes the listener, shuts down the
// inference layer (after which every accepted request's completion has
// run), lets each loop answer the frames still buffered (ShutdownError),
// flushes every connection until its slots are empty or its peer is
// gone, then closes the sockets and joins the loops. bench_e2e gates
// requests_submitted == responses_written after a shutdown under load.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <semaphore>
#include <span>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace nacu::net {

struct NetServerOptions {
  /// 0 = ephemeral; read the bound port back via NetServer::port().
  std::uint16_t port = 0;
  /// Per-frame payload bound enforced on every connection.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Model served by kSubmitMlp frames (borrowed; keep alive for the
  /// server's lifetime). nullptr answers kSubmitMlp with kUnsupported.
  const nn::QuantizedMlp* mlp = nullptr;
};

/// Map a caught exception from submit or a completion onto its wire code.
/// serve:: error types map one-to-one; std::out_of_range /
/// std::invalid_argument (a raw outside the datapath format) map to
/// kBadRequest; anything else to kInternal.
[[nodiscard]] ErrorCode classify_exception(std::exception_ptr error,
                                           std::string& message);

class NetServer {
 public:
  /// Binds and starts serving immediately. @p inference is borrowed and
  /// must outlive this object; its shutdown() is invoked (once) by ours.
  explicit NetServer(serve::InferenceServer& inference,
                     NetServerOptions options = {});
  ~NetServer();  ///< shutdown(): drain every pending response, then join.

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  [[nodiscard]] bool running() const noexcept {
    return listening_ && phase_.load(std::memory_order_acquire) == 0;
  }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, drain the inference layer, flush every pending
  /// response frame onto its socket, join everything. Idempotent.
  void shutdown();

  /// Always-on per-server tallies, each mirrored by the obs:: counter of
  /// the same name under net.*. After shutdown() every submitted request
  /// was either written or lost: requests_submitted == responses_written +
  /// write_failures, and the drain guarantee is write_failures == 0 when
  /// no client vanished mid-response.
  struct Stats {
    std::uint64_t connections = 0;         ///< accepted sockets
    std::uint64_t frames_read = 0;         ///< well-framed payloads received
    std::uint64_t requests_submitted = 0;  ///< requests serve accepted
    std::uint64_t responses_written = 0;   ///< frames answering those
    std::uint64_t immediate_errors = 0;  ///< error frames for requests serve
                                         ///< never accepted
    std::uint64_t protocol_errors = 0;  ///< connections killed by broken
                                        ///< framing (bad length prefix /
                                        ///< EOF mid-frame)
    std::uint64_t write_failures = 0;  ///< answers to submitted requests
                                       ///< lost to a vanished client
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Slot;
  struct Connection;
  struct Loop;
  using ConnectionPtr = std::shared_ptr<Connection>;

  /// One Stats field and its obs:: counter, bumped together.
  struct Tally {
    explicit Tally(std::string_view name) : metric{obs::counter(name)} {}
    void add() noexcept {
      value.fetch_add(1, std::memory_order_relaxed);
      metric.add();
    }
    std::atomic<std::uint64_t> value{0};
    obs::Counter& metric;
  };

  void run_loop(Loop& loop);
  void accept_all(Loop& loop);
  void adopt(Loop& loop, ConnectionPtr conn);
  /// Take what completions and loop 0 posted: new connections, and
  /// connections with freshly completed slots (then flushed).
  void take_posted(Loop& loop);
  /// Read and submit until the socket would block — or, unless
  /// @p until_empty, until a recv leaves free space in the buffer.
  void read_some(Connection& conn, bool until_empty);
  /// Decode one framed payload and act on it: submit it, or fill its slot
  /// with an error frame (framing intact means the stream is still
  /// synchronised, so the connection keeps serving).
  void handle_frame(Connection& conn, std::span<const std::uint8_t> payload);
  /// Write the ready prefix of the slots, then close the connection if it
  /// has nothing left to do, or wait for EPOLLOUT if the socket is full.
  void flush(Loop& loop, Connection& conn);
  /// The completion that encodes a result into @p slot and wakes the loop.
  template <typename T>
  serve::Completion<T> completion(Connection& conn, Slot& slot);

  serve::InferenceServer& inference_;
  NetServerOptions options_;
  std::uint16_t port_ = 0;
  Socket listener_;  ///< loop 0's once serving starts
  bool listening_ = false;
  std::vector<std::uint8_t> hello_;

  /// 0 serving, 1 closing the listener, 2 draining.
  std::atomic<int> phase_{0};
  std::binary_semaphore listener_closed_{0};
  std::once_flag shutdown_once_;

  Tally connections_{"net.connections"};
  Tally frames_read_{"net.frames_read"};
  Tally requests_submitted_{"net.requests_submitted"};
  Tally responses_written_{"net.responses_written"};
  Tally immediate_errors_{"net.immediate_errors"};
  Tally protocol_errors_{"net.protocol_errors"};
  Tally write_failures_{"net.write_failures"};

  std::vector<std::unique_ptr<Loop>> loops_;  ///< threads use all the above
  std::size_t next_loop_ = 0;  ///< loop 0's round-robin cursor
};

}  // namespace nacu::net
