// Network-edge coverage: the wire protocol, the TCP front-end, and the
// graceful-drain contract.
//
// Three claims pinned here:
//  * transport transparency — results served over TCP are bit-identical
//    to direct core::BatchNacu / model evaluation (the serving layer's
//    central claim extended one more layer out), for activations,
//    softmax rows, and hosted-MLP forward passes, including pipelined
//    and multi-connection traffic;
//  * robustness — a hostile or broken byte stream (torn 1-byte writes,
//    zero-length and oversized frames, garbage opcodes, truncated
//    payloads, out-of-format raws, a client vanishing mid-request) never
//    crashes the server and never leaks a pending promise: framing-level
//    damage closes that one connection, payload-level damage is answered
//    with a typed kBadRequest frame on a connection that keeps serving,
//    and in every case the server still accepts fresh connections and
//    the inference layer's accepted == completed invariant holds;
//  * graceful drain — shutdown() under live multi-connection load
//    answers every request that reached the inference layer on the wire
//    before closing (stats().requests_submitted == responses_written),
//    which is the closed-loop gate bench_e2e enforces end-to-end.
// Two more pin the event-loop edge's lifetime rules: idle connections cost
// no threads, and a completion that lands after its client vanished is
// accounted, never a use-after-free.
// This binary runs under the CI e2e-smoke job (ASan/UBSan and TSan).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_nacu.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "nn/dataset.hpp"
#include "nn/quantized_mlp.hpp"
#include "nn/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace nacu::net {
namespace {

using core::BatchNacu;
using core::NacuConfig;
using core::config_for_bits;
using Function = BatchNacu::Function;

std::vector<fp::Fixed> random_batch(nn::Rng& rng, const fp::Format& fmt,
                                    std::size_t n) {
  std::vector<fp::Fixed> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto raw = static_cast<std::int64_t>(rng.below(
                         static_cast<std::uint64_t>(fmt.max_raw() -
                                                    fmt.min_raw() + 1))) +
                     fmt.min_raw();
    batch.push_back(fp::Fixed::from_raw(raw, fmt));
  }
  return batch;
}

void expect_bit_equal(const std::vector<fp::Fixed>& got,
                      const std::vector<fp::Fixed>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].raw(), want[i].raw()) << context << " element " << i;
  }
}

/// A Submit frame for @p input, appended to @p bytes (several frames in
/// one buffer reach the server through one send).
void append_submit(std::vector<std::uint8_t>& bytes, std::uint64_t id,
                   Function function, const std::vector<fp::Fixed>& input) {
  std::vector<std::int64_t> raws;
  for (const fp::Fixed& v : input) {
    raws.push_back(v.raw());
  }
  const std::vector<std::uint8_t> frame =
      encode_submit(id, static_cast<std::uint8_t>(function), raws, {});
  bytes.insert(bytes.end(), frame.begin(), frame.end());
}

/// The process's thread count (/proc/self/status "Threads:").
std::size_t process_threads() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoul(line.substr(8));
    }
  }
  return 0;
}

// -- wire encode/decode unit coverage ---------------------------------------

TEST(Wire, SubmitOptionsRoundTripEveryField) {
  WireSubmitOptions options;
  options.priority = 2;
  options.tenant = 0xDEADBEEFCAFEull;
  options.max_retries = 7;
  options.deadline_ns = -123456789;  // "already expired" is representable

  ByteWriter w;
  encode_submit_options(w, options);
  const std::vector<std::uint8_t> bytes = w.bytes();
  EXPECT_EQ(bytes.size(), 22u) << "options block size (src/net/README.md)";
  ByteReader r{std::span<const std::uint8_t>{bytes}};
  const auto decoded = decode_submit_options(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->priority, options.priority);
  EXPECT_EQ(decoded->tenant, options.tenant);
  EXPECT_EQ(decoded->max_retries, options.max_retries);
  ASSERT_TRUE(decoded->deadline_ns.has_value());
  EXPECT_EQ(*decoded->deadline_ns, *options.deadline_ns);
  EXPECT_TRUE(r.exhausted());

  // No deadline → flag bit clear → decodes back to nullopt.
  ByteWriter w2;
  encode_submit_options(w2, WireSubmitOptions{});
  const std::vector<std::uint8_t> bytes2 = w2.bytes();
  ByteReader r2{std::span<const std::uint8_t>{bytes2}};
  const auto plain = decode_submit_options(r2);
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->deadline_ns.has_value());
}

TEST(Wire, TruncatedOptionsDecodeToNulloptAtEveryCutPoint) {
  ByteWriter w;
  encode_submit_options(w, WireSubmitOptions{});
  const std::vector<std::uint8_t> full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r{std::span<const std::uint8_t>{full.data(), cut}};
    EXPECT_FALSE(decode_submit_options(r).has_value()) << "cut at " << cut;
  }
}

TEST(Wire, FramePrefixIsLittleEndianPayloadLength) {
  ByteWriter w;
  w.u8(0x42);
  w.u64(7);
  const std::vector<std::uint8_t> frame = finish_frame(w.take());
  ASSERT_EQ(frame.size(), kLengthPrefixBytes + 9);
  EXPECT_EQ(frame[0], 9);
  EXPECT_EQ(frame[1], 0);
  EXPECT_EQ(frame[2], 0);
  EXPECT_EQ(frame[3], 0);
  EXPECT_EQ(frame[4], 0x42);
}

// -- fixture: one inference server + one net server -------------------------

struct NetFixture {
  explicit NetFixture(serve::ServerOptions serve_options = {},
                      NetServerOptions net_options = {})
      : config{config_for_bits(16)},
        inference{config, std::move(serve_options)},
        server{inference, net_options} {}

  NacuConfig config;
  serve::InferenceServer inference;
  NetServer server;
};

TEST(Net, HelloAdvertisesTheDatapathFormat) {
  NetFixture fx;
  ASSERT_TRUE(fx.server.running());
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  EXPECT_EQ(client.format().integer_bits(), fx.config.format.integer_bits());
  EXPECT_EQ(client.format().fractional_bits(),
            fx.config.format.fractional_bits());
}

TEST(Net, ActivationsOverTcpAreBitIdenticalToDirectEvaluation) {
  serve::ServerOptions options;
  options.shards = 2;
  options.batcher.max_batch = 16;
  NetFixture fx{options};
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{99};
  for (const Function f : {Function::Sigmoid, Function::Tanh, Function::Exp}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}}) {
      const std::vector<fp::Fixed> input =
          random_batch(rng, fx.config.format, n);
      expect_bit_equal(client.call(f, input), direct.evaluate(f, input),
                       "f=" + std::to_string(static_cast<int>(f)) +
                           " n=" + std::to_string(n));
    }
  }
}

TEST(Net, PipelinedRequestsStreamBackInSubmissionOrder) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{7};
  constexpr std::size_t kInFlight = 50;
  std::vector<std::vector<fp::Fixed>> inputs;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 1 + i % 9));
    const std::uint64_t id = client.send_submit(Function::Sigmoid, inputs[i]);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (std::size_t i = 0; i < kInFlight; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_EQ(response->id, ids[i]) << "submission order broken at " << i;
    ASSERT_TRUE(response->ok());
    expect_bit_equal(response->values,
                     direct.evaluate(Function::Sigmoid, inputs[i]),
                     "pipelined " + std::to_string(i));
  }
}

TEST(Net, SoftmaxOverTcpMatchesDirectRows) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{23};
  for (int row = 0; row < 12; ++row) {
    std::vector<fp::Fixed> logits;
    const std::size_t n = 1 + rng.below(10);
    for (std::size_t i = 0; i < n; ++i) {
      logits.push_back(
          fp::Fixed::from_double(rng.uniform(-6.0, 6.0), fx.config.format));
    }
    const std::uint64_t id = client.send_softmax(logits);
    ASSERT_NE(id, 0u);
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->ok()) << response->message;
    expect_bit_equal(response->values, direct.softmax(logits),
                     "softmax row " + std::to_string(row));
  }
}

TEST(Net, HostedMlpForwardPassMatchesDirectPredictProba) {
  const NacuConfig config = config_for_bits(16);
  const nn::Dataset data = nn::make_blobs(30, 3);
  nn::MlpConfig mlp_config;
  mlp_config.layer_sizes = {2, 10, 3};
  mlp_config.epochs = 30;
  nn::Mlp reference{mlp_config};
  reference.train(data);
  const nn::QuantizedMlp model{reference, config};

  serve::InferenceServer inference{config};
  NetServerOptions net_options;
  net_options.mlp = &model;
  NetServer server{inference, net_options};
  Client client{server.port()};
  ASSERT_TRUE(client.valid());

  for (std::size_t s = 0; s < data.size(); ++s) {
    const std::vector<double> input{data.inputs(s, 0), data.inputs(s, 1)};
    const std::uint64_t id = client.send_mlp(input);
    ASSERT_NE(id, 0u);
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->ok()) << response->message;
    EXPECT_EQ(response->doubles, model.predict_proba(input)) << "sample " << s;
  }
}

TEST(Net, MlpWithoutHostedModelAnswersUnsupported) {
  NetFixture fx;  // no mlp in NetServerOptions
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  const std::vector<double> input{0.5, -0.5};
  ASSERT_NE(client.send_mlp(input), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->error, ErrorCode::kUnsupported);
}

// -- typed error frames ------------------------------------------------------

TEST(Net, ExpiredDeadlineComesBackAsTypedErrorFrame) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  WireSubmitOptions options;
  options.deadline_ns = -1;  // expired before the server even parses it
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  ASSERT_NE(client.send_submit(Function::Sigmoid, input, options), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->error, ErrorCode::kDeadlineExpired);
}

TEST(Net, SubmitAfterShutdownComesBackAsShutdownError) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  fx.inference.shutdown();  // serving layer down, net edge still reading
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  ASSERT_NE(client.send_submit(Function::Sigmoid, input), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->error, ErrorCode::kShutdown);
}

// -- framing robustness ------------------------------------------------------

TEST(Net, TornOneByteWritesStillParseIntoOneRequest) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{5};
  const std::vector<fp::Fixed> input = random_batch(rng, fx.config.format, 9);
  std::vector<std::int64_t> raws;
  for (const fp::Fixed& v : input) {
    raws.push_back(v.raw());
  }
  const std::vector<std::uint8_t> frame =
      encode_submit(1, static_cast<std::uint8_t>(Function::Tanh), raws, {});
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(client.socket().send_all(&byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->id, 1u);
  expect_bit_equal(response->values, direct.evaluate(Function::Tanh, input),
                   "torn write");
}

TEST(Net, ZeroLengthFrameClosesTheConnectionButNotTheServer) {
  NetFixture fx;
  Client victim{fx.server.port()};
  ASSERT_TRUE(victim.valid());
  const std::uint8_t zero_prefix[4] = {0, 0, 0, 0};
  ASSERT_TRUE(victim.socket().send_all(zero_prefix, sizeof zero_prefix));
  // The server kills this connection (unrecoverable framing)…
  EXPECT_FALSE(victim.read_response().has_value());
  // …and keeps serving fresh ones.
  Client fresh{fx.server.port()};
  ASSERT_TRUE(fresh.valid());
  const std::vector<fp::Fixed> input{fp::Fixed::zero(fresh.format())};
  EXPECT_NO_THROW((void)fresh.call(Function::Sigmoid, input));
  EXPECT_GE(fx.server.stats().protocol_errors, 1u);
}

TEST(Net, OversizedLengthPrefixClosesTheConnectionButNotTheServer) {
  NetFixture fx;
  Client victim{fx.server.port()};
  ASSERT_TRUE(victim.valid());
  // length = kMaxFrameBytes + 1, little-endian.
  const std::uint32_t length = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  ASSERT_TRUE(victim.socket().send_all(prefix, sizeof prefix));
  EXPECT_FALSE(victim.read_response().has_value());
  Client fresh{fx.server.port()};
  ASSERT_TRUE(fresh.valid());
  const std::vector<fp::Fixed> input{fp::Fixed::zero(fresh.format())};
  EXPECT_NO_THROW((void)fresh.call(Function::Sigmoid, input));
  EXPECT_GE(fx.server.stats().protocol_errors, 1u);
}

TEST(Net, GarbageOpcodeGetsBadRequestAndTheConnectionKeepsServing) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  // A well-framed payload with a nonsense opcode and a parseable id.
  ByteWriter w;
  w.u8(0x7F);
  w.u64(42);
  const std::vector<std::uint8_t> frame = finish_frame(w.take());
  ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 42u);
  EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  // Same connection, next request: still served.
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  EXPECT_NO_THROW((void)client.call(Function::Sigmoid, input));
}

TEST(Net, TruncatedBodyAndBadValuesGetBadRequestNotACrash) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  // Truncated: submit frame cut after the options block (no count).
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Opcode::kSubmit));
    w.u64(1);
    w.u8(0);  // function
    encode_submit_options(w, {});
    const std::vector<std::uint8_t> frame = finish_frame(w.take());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // Count that disagrees with the frame length.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Opcode::kSubmit));
    w.u64(2);
    w.u8(0);
    encode_submit_options(w, {});
    w.u32(100);  // promises 100 elements, delivers 1
    w.i64(0);
    const std::vector<std::uint8_t> frame = finish_frame(w.take());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // A raw value outside the datapath format.
  {
    const std::vector<std::int64_t> raws{
        fx.config.format.max_raw() + 1};
    const std::vector<std::uint8_t> frame =
        encode_submit(3, 0, raws, {});
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // Unknown function index.
  {
    const std::vector<std::int64_t> raws{0};
    const std::vector<std::uint8_t> frame =
        encode_submit(4, BatchNacu::kFunctionCount, raws, {});
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // And the connection still serves after all four.
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  EXPECT_NO_THROW((void)client.call(Function::Sigmoid, input));
}

// -- coalesced frames: many frames in one recv -------------------------------

TEST(Net, CoalescedGarbageFrameGetsBadRequestInOrderAmongValidSubmits) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{21};
  constexpr std::uint64_t kBad = 21;
  std::vector<std::vector<fp::Fixed>> inputs(2 * kBad);
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id < 2 * kBad; ++id) {
    if (id == kBad) {
      ByteWriter w;
      w.u8(0x7F);
      w.u64(id);
      const std::vector<std::uint8_t> frame = finish_frame(w.take());
      burst.insert(burst.end(), frame.begin(), frame.end());
      continue;
    }
    inputs[id] = random_batch(rng, fx.config.format, 8);
    append_submit(burst, id, static_cast<Function>(id % 3), inputs[id]);
  }
  ASSERT_TRUE(client.socket().send_all(burst.data(), burst.size()));
  for (std::uint64_t id = 1; id < 2 * kBad; ++id) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "id " << id;
    ASSERT_EQ(response->id, id);
    if (id == kBad) {
      EXPECT_EQ(response->error, ErrorCode::kBadRequest);
      continue;
    }
    ASSERT_TRUE(response->ok()) << response->message;
    expect_bit_equal(response->values,
                     direct.evaluate(static_cast<Function>(id % 3), inputs[id]),
                     "coalesced id " + std::to_string(id));
  }
  // Same connection, next request: still served.
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  EXPECT_NO_THROW((void)client.call(Function::Sigmoid, input));
  EXPECT_EQ(fx.server.stats().immediate_errors, 1u);
  EXPECT_EQ(fx.server.stats().protocol_errors, 0u);
}

TEST(Net, CoalescedZeroPrefixAfterValidSubmitsAnswersThemAllBeforeEof) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client victim{fx.server.port()};
  ASSERT_TRUE(victim.valid());
  nn::Rng rng{22};
  constexpr std::uint64_t kValid = 20;
  std::vector<std::vector<fp::Fixed>> inputs(kValid + 1);
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= kValid; ++id) {
    inputs[id] = random_batch(rng, fx.config.format, 8);
    append_submit(burst, id, Function::Exp, inputs[id]);
  }
  burst.insert(burst.end(), kLengthPrefixBytes, 0);  // zero-length frame
  ASSERT_TRUE(victim.socket().send_all(burst.data(), burst.size()));
  // Every frame before the broken prefix is answered, in order…
  for (std::uint64_t id = 1; id <= kValid; ++id) {
    const auto response = victim.read_response();
    ASSERT_TRUE(response.has_value()) << "id " << id;
    ASSERT_EQ(response->id, id);
    ASSERT_TRUE(response->ok()) << response->message;
    expect_bit_equal(response->values,
                     direct.evaluate(Function::Exp, inputs[id]),
                     "before the broken prefix, id " + std::to_string(id));
  }
  // …then the connection closes, and only that connection.
  EXPECT_FALSE(victim.read_response().has_value());
  EXPECT_EQ(fx.server.stats().protocol_errors, 1u);
  Client fresh{fx.server.port()};
  ASSERT_TRUE(fresh.valid());
  const std::vector<fp::Fixed> input{fp::Fixed::zero(fresh.format())};
  EXPECT_NO_THROW((void)fresh.call(Function::Sigmoid, input));
}

TEST(Net, ClientVanishingMidRequestLeaksNothing) {
  serve::ServerOptions options;
  options.batcher.max_batch = 4;
  auto fx = std::make_unique<NetFixture>(options);
  nn::Rng rng{3};
  {
    Client client{fx->server.port()};
    ASSERT_TRUE(client.valid());
    // Pipeline a burst, then vanish without reading a single response.
    for (int i = 0; i < 25; ++i) {
      const std::vector<fp::Fixed> input =
          random_batch(rng, fx->config.format, 8);
      ASSERT_NE(client.send_submit(Function::Sigmoid, input), 0u);
    }
    client.close();  // hard close, responses undeliverable
  }
  fx->server.shutdown();
  // Every accepted request still completed inside the serving layer (no
  // leaked promise), even though the responses had nowhere to go.
  const auto counters = fx->inference.counters();
  EXPECT_EQ(counters.accepted, counters.completed);
  const auto stats = fx->server.stats();
  // Whatever could not be written is accounted, not lost.
  EXPECT_EQ(stats.requests_submitted,
            stats.responses_written + stats.write_failures);
}

TEST(Net, ClientVanishingBeforeLargeRequestsCompleteLeaksNothing) {
  // Each round submits 65,536 elements (past the engine's parallel
  // threshold) and, once the server has accepted the request, resets the
  // connection (SO_LINGER 0 sends RST). The server drops the socket at
  // once; max_wait holds the request in the batcher long after that, so
  // every completion lands on a closed connection that only the
  // completion itself keeps alive — each answer must be accounted as a
  // write failure, never written to freed memory.
  serve::ServerOptions options;
  options.batcher.max_batch = 1024;
  options.batcher.max_wait = std::chrono::milliseconds{100};
  auto fx = std::make_unique<NetFixture>(options);
  nn::Rng rng{9};
  const std::vector<fp::Fixed> input =
      random_batch(rng, fx->config.format, std::size_t{1} << 16);
  constexpr std::uint64_t kRounds = 20;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    Client client{fx->server.port()};
    ASSERT_TRUE(client.valid());
    ASSERT_NE(client.send_submit(Function::Tanh, input), 0u);
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds{10};
    while (fx->server.stats().requests_submitted <= round) {
      ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "round " << round;
      std::this_thread::sleep_for(std::chrono::microseconds{100});
    }
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(client.socket().fd(), SOL_SOCKET, SO_LINGER,
                           &reset, sizeof reset),
              0);
    client.close();
  }
  fx->server.shutdown();
  const auto counters = fx->inference.counters();
  EXPECT_EQ(counters.accepted, kRounds);
  EXPECT_EQ(counters.accepted, counters.completed);
  const auto stats = fx->server.stats();
  EXPECT_EQ(stats.requests_submitted, kRounds);
  EXPECT_EQ(stats.responses_written, 0u);
  EXPECT_EQ(stats.write_failures, kRounds);
}

TEST(Net, IdleConnectionsCostNoThreads) {
  serve::ServerOptions options;
  options.shards = 2;
  NetFixture fx{options};
  const BatchNacu direct{fx.config};
  const std::size_t threads_before = process_threads();
  ASSERT_GT(threads_before, 0u);
  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < 256; ++i) {
    idle.push_back(std::make_unique<Client>(fx.server.port()));
    ASSERT_TRUE(idle.back()->valid()) << "connection " << i;  // Hello read
  }
  // A thread per connection would have added hundreds here.
  EXPECT_LE(process_threads(), threads_before + 2);

  // One pipelining client on top of the idle crowd is still exact.
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{256};
  std::vector<std::vector<fp::Fixed>> inputs;
  for (int i = 0; i < 64; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 8));
    ASSERT_NE(client.send_submit(static_cast<Function>(i % 3), inputs.back()),
              0u);
  }
  for (int i = 0; i < 64; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value() && response->ok()) << "request " << i;
    expect_bit_equal(response->values,
                     direct.evaluate(static_cast<Function>(i % 3), inputs[i]),
                     "among idle connections, request " + std::to_string(i));
  }

  // Shutdown with every connection still open returns, and every
  // submitted request was written or accounted as lost.
  fx.server.shutdown();
  const auto stats = fx.server.stats();
  EXPECT_EQ(stats.connections, 257u);
  EXPECT_EQ(stats.requests_submitted, 64u);
  EXPECT_EQ(stats.requests_submitted,
            stats.responses_written + stats.write_failures);
}

// -- graceful drain ----------------------------------------------------------

TEST(Net, ShutdownUnderLiveLoadAnswersEveryAcceptedRequestOnTheWire) {
  serve::ServerOptions options;
  options.shards = 2;
  options.batcher.max_batch = 8;
  options.batcher.max_wait = std::chrono::microseconds{100};
  NetFixture fx{options};
  const BatchNacu direct{fx.config};

  constexpr std::size_t kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client{fx.server.port()};
      if (!client.valid()) {
        return;
      }
      nn::Rng rng{1000 + c};
      std::vector<std::vector<fp::Fixed>> inputs;
      // Closed loop with a window: keep up to 8 in flight, read the rest
      // back after shutdown severs the submit side.
      std::size_t next_read = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<fp::Fixed> input =
            random_batch(rng, fx.config.format, 1 + rng.below(16));
        if (client.send_submit(Function::Sigmoid, input) == 0) {
          break;  // connection severed by shutdown
        }
        inputs.push_back(input);
        sent.fetch_add(1);
        if (inputs.size() - next_read >= 8) {
          const auto response = client.read_response();
          if (!response) {
            return;
          }
          if (response->ok()) {
            const auto want =
                direct.evaluate(Function::Sigmoid, inputs[next_read]);
            if (response->values.size() != want.size()) {
              wrong.fetch_add(1);
            } else {
              for (std::size_t i = 0; i < want.size(); ++i) {
                if (response->values[i].raw() != want[i].raw()) {
                  wrong.fetch_add(1);
                  break;
                }
              }
            }
          }
          answered.fetch_add(1);
          ++next_read;
        }
      }
      // Drain: every remaining response must arrive before EOF.
      while (next_read < inputs.size()) {
        const auto response = client.read_response();
        if (!response) {
          break;
        }
        answered.fetch_add(1);
        ++next_read;
      }
    });
  }
  // Let traffic flow, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds{100});
  fx.server.shutdown();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }

  const auto stats = fx.server.stats();
  // The drain gate: everything that reached the inference layer was
  // answered on the wire (clients held their sockets open, so no writes
  // can have failed).
  EXPECT_EQ(stats.write_failures, 0u);
  EXPECT_EQ(stats.requests_submitted, stats.responses_written);
  EXPECT_EQ(wrong.load(), 0u);
  // And the clients observed every one of those answers arrive.
  EXPECT_EQ(answered.load(), stats.requests_submitted +
                                 stats.immediate_errors);
  EXPECT_GT(stats.requests_submitted, 0u);
  const auto counters = fx.inference.counters();
  EXPECT_EQ(counters.accepted, counters.completed);
}

TEST(Net, HalfCloseDrainsEveryOwedResponseBeforeEof) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{77};
  constexpr std::size_t kBurst = 40;
  std::vector<std::vector<fp::Fixed>> inputs;
  for (std::size_t i = 0; i < kBurst; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 4));
    ASSERT_NE(client.send_submit(Function::Exp, inputs.back()), 0u);
  }
  client.close_send();  // done submitting; responses still owed
  std::size_t received = 0;
  while (const auto response = client.read_response()) {
    ASSERT_TRUE(response->ok()) << response->message;
    expect_bit_equal(response->values,
                     direct.evaluate(Function::Exp, inputs[received]),
                     "half-close drain " + std::to_string(received));
    ++received;
  }
  EXPECT_EQ(received, kBurst);
}

// -- observability -----------------------------------------------------------

TEST(Net, ObsCountersMatchStatsAcrossGoodBadAndVanishedTraffic) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const char* const names[] = {
      "net.connections",       "net.frames_read",
      "net.requests_submitted", "net.responses_written",
      "net.immediate_errors",  "net.protocol_errors",
      "net.write_failures"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) {
    before.push_back(obs::counter(name).value());
  }
  NetServer::Stats stats;
  {
    NetFixture fx;
    nn::Rng rng{31};
    {
      Client good{fx.server.port()};
      ASSERT_TRUE(good.valid());
      for (int i = 0; i < 10; ++i) {
        (void)good.call(Function::Tanh, random_batch(rng, fx.config.format, 8));
      }
      ByteWriter w;
      w.u8(0x7F);
      w.u64(99);
      const std::vector<std::uint8_t> frame = finish_frame(w.take());
      ASSERT_TRUE(good.socket().send_all(frame.data(), frame.size()));
      const auto response = good.read_response();
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(response->error, ErrorCode::kBadRequest);
    }
    {
      Client vanishing{fx.server.port()};
      ASSERT_TRUE(vanishing.valid());
      for (int i = 0; i < 25; ++i) {
        ASSERT_NE(vanishing.send_submit(
                      Function::Sigmoid,
                      random_batch(rng, fx.config.format, 8)),
                  0u);
      }
      vanishing.close();
    }
    {
      Client broken{fx.server.port()};
      ASSERT_TRUE(broken.valid());
      const std::uint8_t zero_prefix[4] = {0, 0, 0, 0};
      ASSERT_TRUE(broken.socket().send_all(zero_prefix, sizeof zero_prefix));
      EXPECT_FALSE(broken.read_response().has_value());
    }
    fx.server.shutdown();
    stats = fx.server.stats();
  }
  obs::set_metrics_enabled(was_enabled);
  const std::uint64_t want[] = {
      stats.connections,       stats.frames_read,
      stats.requests_submitted, stats.responses_written,
      stats.immediate_errors,  stats.protocol_errors,
      stats.write_failures};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(obs::counter(names[i]).value() - before[i], want[i])
        << names[i];
  }
  EXPECT_EQ(stats.connections, 3u);
  EXPECT_GE(stats.immediate_errors, 1u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.requests_submitted,
            stats.responses_written + stats.write_failures);
}

}  // namespace
}  // namespace nacu::net
