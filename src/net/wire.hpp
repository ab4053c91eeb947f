// The NACU wire protocol: binary length-prefix framing over TCP.
//
// This is the vocabulary of the network edge (net/server.hpp accepts it,
// net/client.hpp speaks it, bench_e2e drives it): a byte-exact, versioned
// encoding of the serving layer's submit API — every SubmitOptions field
// travels on the wire — plus typed error frames that map the admission
// exceptions (OverloadedError, DeadlineExpiredError, QuotaExceededError,
// ShutdownError, ShardFailedError) onto stable one-byte codes a client can
// switch on without parsing message text.
//
// Every frame is a u32 little-endian payload length (≥ 1, at most
// kMaxFrameBytes) followed by the payload: a one-byte opcode and, on every
// request and response, the u64 request id that pairs streamed responses
// with pipelined requests. The byte layout of each payload — including
// the fixed 22-byte SubmitOptions block, whose deadline is *relative* to
// server receipt — is specified in src/net/README.md; the encode_*
// builders and decode_submit_options below are its one implementation.
//
// Malformed-input contract (pinned by tests/test_net.cpp): a frame whose
// *stream framing* is broken — zero/oversized length prefix, or EOF mid
// frame — kills the connection (the stream cannot be resynchronised); a
// frame whose *payload* is broken but whose id parsed — unknown opcode,
// truncated body, out-of-format raw value — is answered with a
// kBadRequest error frame and the connection keeps serving. Either way
// the server never crashes and never leaks an accepted request.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fixedpoint/fixed.hpp"

namespace nacu::net {

inline constexpr std::uint8_t kProtocolVersion = 2;
/// Hard per-frame payload bound: large enough for any realistic batch
/// (128 Ki elements), small enough that a corrupt length prefix cannot
/// make the reader allocate unbounded memory.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kLengthPrefixBytes = 4;

enum class Opcode : std::uint8_t {
  kSubmit = 0x01,         ///< element-wise activation batch
  kSubmitSoftmax = 0x02,  ///< one Eq. 13 softmax row
  kSubmitMlp = 0x03,      ///< hosted-model QuantizedMlp forward pass
  kHello = 0x10,          ///< server → client greeting
  kResultFixed = 0x20,    ///< raw fixed-point result vector
  kResultF64 = 0x21,      ///< double result vector (MLP probabilities)
  kError = 0x30,          ///< typed failure for one request
};

/// Stable wire codes for every way a request can fail. Codes 1–5 map the
/// serve:: exception types one-to-one; 6–8 are network-edge failures that
/// have no serving-layer equivalent.
enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kOverloaded = 1,       ///< serve::OverloadedError
  kShutdown = 2,         ///< serve::ShutdownError
  kQuotaExceeded = 3,    ///< serve::QuotaExceededError
  kDeadlineExpired = 4,  ///< serve::DeadlineExpiredError
  kShardFailed = 5,      ///< serve::ShardFailedError
  kBadRequest = 6,       ///< malformed payload / value outside the format
  kUnsupported = 7,      ///< opcode needs a capability the server lacks
  kInternal = 8,         ///< anything else (exception text in the message)
};

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// SubmitOptions as they travel: the deadline is relative (nanoseconds
/// from server receipt, < 0 meaning "already expired"), everything else
/// verbatim.
struct WireSubmitOptions {
  std::uint8_t priority = 1;  ///< serve::Priority index (Normal)
  std::uint64_t tenant = 0;
  std::uint32_t max_retries = 0;
  std::optional<std::int64_t> deadline_ns;  ///< relative to server receipt
};

// -- byte-level encode/decode ------------------------------------------------

/// Append-only little-endian byte writer. The encode_* builders below
/// start with a placeholder length prefix and patch it once the payload is
/// written, so a frame is one buffer built in one pass.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve = 0) { bytes_.reserve(reserve); }
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, 2); }
  void u32(std::uint32_t v) { append(&v, 4); }
  void u64(std::uint64_t v) { append(&v, 8); }
  void i64(std::int64_t v) { append(&v, 8); }
  void f64(double v) { append(&v, 8); }
  void raw(const void* data, std::size_t n) { append(data, n); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over one received payload. Every
/// accessor returns nullopt past the end instead of reading out of
/// bounds — a truncated body parses to nullopt, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  [[nodiscard]] std::optional<std::uint8_t> u8() {
    return fixed<std::uint8_t>();
  }
  [[nodiscard]] std::optional<std::uint16_t> u16() {
    return fixed<std::uint16_t>();
  }
  [[nodiscard]] std::optional<std::uint32_t> u32() {
    return fixed<std::uint32_t>();
  }
  [[nodiscard]] std::optional<std::uint64_t> u64() {
    return fixed<std::uint64_t>();
  }
  [[nodiscard]] std::optional<std::int64_t> i64() {
    return fixed<std::int64_t>();
  }
  [[nodiscard]] std::optional<double> f64() { return fixed<double>(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] std::optional<T> fixed() {
    if (pos_ + sizeof(T) > bytes_.size()) {
      return std::nullopt;
    }
    T v{};
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// -- frame builders (payload + length prefix in one buffer) ------------------

/// Wrap @p payload in its u32 length prefix, ready for one send call.
[[nodiscard]] std::vector<std::uint8_t> finish_frame(
    std::vector<std::uint8_t> payload);

void encode_submit_options(ByteWriter& w, const WireSubmitOptions& options);
[[nodiscard]] std::optional<WireSubmitOptions> decode_submit_options(
    ByteReader& r);

[[nodiscard]] std::vector<std::uint8_t> encode_hello(int integer_bits,
                                                     int fractional_bits,
                                                     std::uint8_t functions);
[[nodiscard]] std::vector<std::uint8_t> encode_submit(
    std::uint64_t id, std::uint8_t function,
    std::span<const std::int64_t> raws, const WireSubmitOptions& options);
[[nodiscard]] std::vector<std::uint8_t> encode_submit_softmax(
    std::uint64_t id, std::span<const std::int64_t> raws,
    const WireSubmitOptions& options);
[[nodiscard]] std::vector<std::uint8_t> encode_submit_mlp(
    std::uint64_t id, std::span<const double> input,
    const WireSubmitOptions& options);
[[nodiscard]] std::vector<std::uint8_t> encode_result_fixed(
    std::uint64_t id, std::span<const fp::Fixed> values);
[[nodiscard]] std::vector<std::uint8_t> encode_result_f64(
    std::uint64_t id, std::span<const double> values);
[[nodiscard]] std::vector<std::uint8_t> encode_error(std::uint64_t id,
                                                     ErrorCode code,
                                                     std::string_view message);

}  // namespace nacu::net
