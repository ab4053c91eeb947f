#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

namespace nacu::net {
namespace {

constexpr int kMaxEvents = 64;
/// Ready slots gathered into one sendmsg.
constexpr std::size_t kMaxIov = 64;

template <typename E>
bool is(const std::exception& e) {
  return dynamic_cast<const E*>(&e) != nullptr;
}

}  // namespace

/// One response owed to the client, in submission order.
struct NetServer::Slot {
  std::vector<std::uint8_t> frame;  ///< complete framed bytes once ready
  std::uint64_t id = 0;
  bool ready = false;            ///< guarded by the owning loop's mutex
  bool answers_request = false;  ///< serve accepted it (not an immediate error)
};

struct NetServer::Connection
    : std::enable_shared_from_this<NetServer::Connection> {
  Loop* loop = nullptr;
  Socket socket;  ///< closed once done, or once the peer is gone
  FrameBuffer in;
  /// Submission order. Only the loop adds or removes slots; a deque keeps
  /// the address a pending completion holds stable meanwhile.
  std::deque<Slot> slots;
  std::size_t sent = 0;  ///< bytes of slots.front() already written
  bool reading = true;   ///< more frames may arrive
  std::uint32_t interest = EPOLLIN;  ///< events registered with epoll
  bool queued = false;  ///< on loop->ready; guarded by loop->mutex
};

struct NetServer::Loop {
  Socket epoll{::epoll_create1(EPOLL_CLOEXEC)};
  Socket wake{::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)};
  /// Guards incoming, ready, and every Slot::ready and Connection::queued
  /// of this loop's connections.
  std::mutex mutex;
  std::vector<ConnectionPtr> incoming;  ///< dealt by loop 0, not yet adopted
  std::vector<ConnectionPtr> ready;  ///< connections with completed slots
  std::vector<ConnectionPtr> taken;  ///< ready, swapped out for flushing
  /// Loop-thread only: every open connection, and those closed during the
  /// current batch of events (kept alive until the batch is done).
  std::unordered_map<Connection*, ConnectionPtr> connections;
  std::vector<ConnectionPtr> closed;
  std::thread thread;

  void notify() const {
    const std::uint64_t one = 1;
    (void)!::write(wake.fd(), &one, sizeof one);
  }
  void watch(int fd, std::uint32_t events, void* tag,
             int op = EPOLL_CTL_ADD) const {
    epoll_event event{};
    event.events = events;
    event.data.ptr = tag;
    ::epoll_ctl(epoll.fd(), op, fd, &event);
  }
};

ErrorCode classify_exception(std::exception_ptr error, std::string& message) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::exception& e) {
    message = e.what();
    return is<serve::OverloadedError>(e)        ? ErrorCode::kOverloaded
           : is<serve::ShutdownError>(e)        ? ErrorCode::kShutdown
           : is<serve::QuotaExceededError>(e)   ? ErrorCode::kQuotaExceeded
           : is<serve::DeadlineExpiredError>(e) ? ErrorCode::kDeadlineExpired
           : is<serve::ShardFailedError>(e)     ? ErrorCode::kShardFailed
           : is<std::out_of_range>(e) || is<std::invalid_argument>(e)
               ? ErrorCode::kBadRequest
               : ErrorCode::kInternal;
  } catch (...) {
    message = "unknown error";
    return ErrorCode::kInternal;
  }
}

NetServer::NetServer(serve::InferenceServer& inference,
                     NetServerOptions options)
    : inference_{inference},
      options_{options},
      listener_{listen_loopback(options.port, port_)} {
  if (!listener_.valid()) {
    return;  // running() stays false; port() stays 0
  }
  listening_ = true;
  const fp::Format format = inference_.engine().config().format;
  hello_ = encode_hello(format.integer_bits(), format.fractional_bits(),
                        core::BatchNacu::kFunctionCount);
  // One loop per shard: each loop is one submitting thread, so
  // home_shard() affinity spreads wire traffic over every shard.
  for (std::size_t i = 0; i < inference_.shard_count(); ++i) {
    auto loop = std::make_unique<Loop>();
    loop->watch(loop->wake.fd(), EPOLLIN, loop.get());
    loops_.push_back(std::move(loop));
  }
  loops_.front()->watch(listener_.fd(), EPOLLIN, &listener_);
  for (auto& loop : loops_) {
    loop->thread = std::thread{[this, &loop = *loop] { run_loop(loop); }};
  }
}

NetServer::~NetServer() { shutdown(); }

NetServer::Stats NetServer::stats() const {
  const auto get = [](const Tally& t) {
    return t.value.load(std::memory_order_relaxed);
  };
  return Stats{get(connections_),        get(frames_read_),
               get(requests_submitted_), get(responses_written_),
               get(immediate_errors_),   get(protocol_errors_),
               get(write_failures_)};
}

void NetServer::shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Order is the drain guarantee:
    //  1. Close the listener (loop 0 owns it): no new connections.
    if (!loops_.empty()) {
      phase_.store(1, std::memory_order_release);
      loops_.front()->notify();
      listener_closed_.acquire();
    }
    //  2. Drain the inference layer. When this returns, every accepted
    //     request's completion has run, so its frame sits in its slot.
    inference_.shutdown();
    //  3–5. Each loop answers the frames still buffered (ShutdownError),
    //     flushes every connection until its slots are empty or its peer
    //     is gone (write_failures), closes its sockets and exits.
    phase_.store(2, std::memory_order_release);
    for (auto& loop : loops_) {
      loop->notify();
    }
    for (auto& loop : loops_) {
      loop->thread.join();
    }
  });
}

void NetServer::run_loop(Loop& loop) {
  epoll_event events[kMaxEvents];
  bool draining = false;
  while (!draining || !loop.connections.empty()) {
    const int n = ::epoll_wait(loop.epoll.fd(), events, kMaxEvents, -1);
    for (int i = 0; i < n; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == &loop) {
        take_posted(loop);
        continue;
      }
      if (tag == &listener_) {
        accept_all(loop);
        continue;
      }
      Connection& conn = *static_cast<Connection*>(tag);
      if (!conn.socket.valid()) {
        continue;  // closed earlier in this batch
      }
      const bool hangup = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      if (conn.reading && (hangup || (events[i].events & EPOLLIN) != 0)) {
        read_some(conn, hangup);
      }
      if (hangup) {
        conn.socket.close();  // the peer is gone: owed slots are lost
      }
      flush(loop, conn);
    }
    loop.closed.clear();
    const int phase = draining ? 2 : phase_.load(std::memory_order_acquire);
    if (phase >= 1 && &loop == loops_.front().get() && listener_.valid()) {
      listener_.close();
      listener_closed_.release();
    }
    if (phase == 2 && !draining) {
      // Shutdown steps 3–5 for this loop: answer what is buffered, stop
      // reading, flush; the loop ends once every connection has closed.
      draining = true;
      take_posted(loop);
      std::vector<ConnectionPtr> open;
      for (auto& [ptr, conn] : loop.connections) {
        open.push_back(conn);
      }
      for (const ConnectionPtr& conn : open) {
        if (conn->reading) {
          read_some(*conn, /*until_empty=*/true);
          conn->reading = false;
        }
        flush(loop, *conn);
      }
      loop.closed.clear();
    }
  }
}

void NetServer::accept_all(Loop& loop) {
  for (Socket socket; (socket = accept_nonblocking(listener_)).valid();) {
    if (!socket.send_all(hello_.data(), hello_.size())) {
      continue;  // greeting failed — peer already gone
    }
    connections_.add();
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(socket);
    Loop& owner = *loops_[next_loop_++ % loops_.size()];
    conn->loop = &owner;
    if (&owner == &loop) {
      adopt(loop, std::move(conn));
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock{owner.mutex};
      owner.incoming.push_back(std::move(conn));
    }
    owner.notify();
  }
}

void NetServer::adopt(Loop& loop, ConnectionPtr conn) {
  loop.watch(conn->socket.fd(), EPOLLIN, conn.get());
  loop.connections.emplace(conn.get(), std::move(conn));
}

void NetServer::take_posted(Loop& loop) {
  // Reset the eventfd before taking the lists: a completion that queues
  // after the swap finds ready empty and signals again.
  std::uint64_t signals = 0;
  (void)!::read(loop.wake.fd(), &signals, sizeof signals);
  std::vector<ConnectionPtr> incoming;
  {
    const std::lock_guard<std::mutex> lock{loop.mutex};
    incoming.swap(loop.incoming);
    loop.taken.swap(loop.ready);
    for (const ConnectionPtr& conn : loop.taken) {
      conn->queued = false;
    }
  }
  for (ConnectionPtr& conn : incoming) {
    adopt(loop, std::move(conn));
  }
  for (const ConnectionPtr& conn : loop.taken) {
    flush(loop, *conn);
  }
  loop.taken.clear();
}

void NetServer::read_some(Connection& conn, bool until_empty) {
  for (;;) {
    const FrameBuffer::Fill fill = conn.in.fill(conn.socket);
    if (fill == FrameBuffer::Fill::kWouldBlock) {
      return;
    }
    if (fill == FrameBuffer::Fill::kClosed) {
      if (!conn.in.empty()) {
        protocol_errors_.add();  // the stream tore mid-frame
      }
      conn.reading = false;
      return;
    }
    std::span<const std::uint8_t> payload;
    FrameBuffer::Next next;
    while ((next = conn.in.next(payload, options_.max_frame_bytes)) ==
           FrameBuffer::Next::kFrame) {
      frames_read_.add();
      handle_frame(conn, payload);
    }
    if (next == FrameBuffer::Next::kBroken) {
      protocol_errors_.add();
      conn.reading = false;
      return;
    }
    if (fill == FrameBuffer::Fill::kSome && !until_empty) {
      return;  // level-triggered epoll reports whatever arrives next
    }
  }
}

void NetServer::handle_frame(Connection& conn,
                             std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  const auto op = static_cast<Opcode>(*r.u8());  // length ≥ 1 — cannot fail
  const auto id = r.u64();
  Slot& slot = conn.slots.emplace_back();
  slot.id = id.value_or(0);
  // A request serve never accepts is answered at once; no completion
  // refers to its slot, so the loop fills it without the lock.
  const auto reject = [&](ErrorCode code, std::string_view message) {
    slot.frame = encode_error(slot.id, code, message);
    slot.ready = true;
    immediate_errors_.add();
  };
  const auto function = op == Opcode::kSubmit
                            ? r.u8()
                            : std::optional<std::uint8_t>{std::uint8_t{0}};
  const auto wire = decode_submit_options(r);
  const auto count = r.u32();
  const char* const malformed =
      // Too short to even carry the id that an error frame would echo.
      !id                ? "frame too short for request id"
      : !function        ? "truncated submit: missing function"
      : *function >= core::BatchNacu::kFunctionCount
                         ? "unknown function index"
      : !wire            ? "truncated submit options"
      : wire->priority >= serve::kPriorityCount ? "unknown priority class"
      : !count || r.remaining() != std::size_t{*count} * 8
          ? "element count does not match frame length"
          : nullptr;
  if (malformed != nullptr) {
    reject(ErrorCode::kBadRequest, malformed);
    return;
  }
  const serve::SubmitOptions submit_options{
      .priority = static_cast<serve::Priority>(wire->priority),
      // Relative on the wire, absolute on the serving clock from here on.
      .deadline = wire->deadline_ns
                      ? std::optional{inference_.now() +
                                      std::chrono::nanoseconds{
                                          *wire->deadline_ns}}
                      : std::nullopt,
      .tenant = wire->tenant,
      .max_retries = wire->max_retries};

  try {
    if (op == Opcode::kSubmit || op == Opcode::kSubmitSoftmax) {
      const fp::Format format = inference_.engine().config().format;
      std::vector<fp::Fixed> input;
      input.reserve(*count);
      for (std::uint32_t i = 0; i < *count; ++i) {
        // from_raw throws out_of_range on a raw outside the format —
        // classified below as kBadRequest, connection keeps serving.
        input.push_back(fp::Fixed::from_raw(*r.i64(), format));
      }
      auto done = completion<std::vector<fp::Fixed>>(conn, slot);
      if (op == Opcode::kSubmit) {
        inference_.submit(static_cast<core::BatchNacu::Function>(*function),
                          std::move(input), submit_options, std::move(done));
      } else {
        inference_.submit_softmax(std::move(input), submit_options,
                                  std::move(done));
      }
    } else if (op != Opcode::kSubmitMlp) {
      reject(ErrorCode::kBadRequest, "unknown opcode");
      return;
    } else if (options_.mlp == nullptr) {
      reject(ErrorCode::kUnsupported, "no MLP model hosted");
      return;
    } else {
      std::vector<double> input;
      input.reserve(*count);
      for (std::uint32_t i = 0; i < *count; ++i) {
        input.push_back(*r.f64());
      }
      inference_.submit_mlp(*options_.mlp, std::move(input), submit_options,
                            completion<std::vector<double>>(conn, slot));
    }
    // Serve accepted it: from here its completion fills the frame. The
    // loop alone reads answers_request.
    slot.answers_request = true;
    requests_submitted_.add();
  } catch (...) {
    // Admission rejections (and bad raws): serve never accepted the
    // request, so its completion will not run; nothing to drain.
    std::string message;
    const ErrorCode code = classify_exception(std::current_exception(),
                                              message);
    reject(code, message);
  }
}

template <typename T>
serve::Completion<T> NetServer::completion(Connection& conn, Slot& slot) {
  // The captured shared_ptr keeps the connection alive when its peer
  // vanished and the loop has dropped it; flush then counts the slot as a
  // write failure.
  return [conn = conn.shared_from_this(), slot = &slot](
             T* value, std::exception_ptr error) {
    if (value == nullptr) {
      std::string message;
      const ErrorCode code = classify_exception(std::move(error), message);
      slot->frame = encode_error(slot->id, code, message);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      slot->frame = encode_result_f64(slot->id, *value);
    } else {
      slot->frame = encode_result_fixed(slot->id, *value);
    }
    Loop& loop = *conn->loop;
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock{loop.mutex};
      slot->ready = true;
      if (!conn->queued) {
        conn->queued = true;
        wake = loop.ready.empty();  // else a signal is already on its way
        loop.ready.push_back(conn);
      }
    }
    if (wake) {
      loop.notify();
    }
  };
}

void NetServer::flush(Loop& loop, Connection& conn) {
  std::size_t ready = 0;
  {
    const std::lock_guard<std::mutex> lock{loop.mutex};
    while (ready < conn.slots.size() && conn.slots[ready].ready) {
      ++ready;
    }
  }
  bool blocked = false;
  while (ready > 0 && conn.socket.valid() && !blocked) {
    iovec iov[kMaxIov];
    const std::size_t k = std::min(ready, kMaxIov);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t skip = i == 0 ? conn.sent : 0;
      iov[i] = {conn.slots[i].frame.data() + skip,
                conn.slots[i].frame.size() - skip};
    }
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = k;
    const ssize_t wrote = ::sendmsg(conn.socket.fd(), &message, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        blocked = true;
      } else if (errno != EINTR) {
        conn.socket.close();  // the peer is gone
      }
      continue;
    }
    std::size_t done = conn.sent + static_cast<std::size_t>(wrote);
    while (ready > 0 && done >= conn.slots.front().frame.size()) {
      done -= conn.slots.front().frame.size();
      if (conn.slots.front().answers_request) {
        responses_written_.add();
      }
      conn.slots.pop_front();
      --ready;
    }
    conn.sent = done;
    blocked = done > 0;  // stopped mid-frame: the send buffer is full
  }
  if (!conn.socket.valid()) {
    // Nothing more can be written: every ready slot is lost.
    for (; ready > 0; --ready) {
      if (conn.slots.front().answers_request) {
        write_failures_.add();
      }
      conn.slots.pop_front();
    }
    conn.sent = 0;
  }
  if (!conn.socket.valid() || (!conn.reading && conn.slots.empty())) {
    conn.socket.close();
    if (auto node = loop.connections.extract(&conn)) {
      loop.closed.push_back(std::move(node.mapped()));
    }
    return;
  }
  const std::uint32_t interest =
      (conn.reading ? EPOLLIN : 0u) | (blocked ? EPOLLOUT : 0u);
  if (interest != conn.interest) {
    conn.interest = interest;
    loop.watch(conn.socket.fd(), interest, &conn, EPOLL_CTL_MOD);
  }
}

}  // namespace nacu::net
