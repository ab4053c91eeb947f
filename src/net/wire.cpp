#include "net/wire.hpp"

namespace nacu::net {

const char* error_code_name(ErrorCode code) noexcept {
  // Indexed by the ErrorCode value.
  static constexpr const char* kNames[] = {
      "none",           "overloaded",       "shutdown",
      "quota-exceeded", "deadline-expired", "shard-failed",
      "bad-request",    "unsupported",      "internal"};
  const auto index = static_cast<std::size_t>(code);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

std::vector<std::uint8_t> finish_frame(std::vector<std::uint8_t> payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  payload.insert(payload.begin(), kLengthPrefixBytes, 0);
  std::memcpy(payload.data(), &length, kLengthPrefixBytes);
  return payload;
}

void encode_submit_options(ByteWriter& w, const WireSubmitOptions& options) {
  w.u8(options.priority);
  w.u8(options.deadline_ns.has_value() ? 1 : 0);
  w.u64(options.tenant);
  w.u32(options.max_retries);
  w.i64(options.deadline_ns.value_or(0));
}

std::optional<WireSubmitOptions> decode_submit_options(ByteReader& r) {
  const auto priority = r.u8();
  const auto flags = r.u8();
  const auto tenant = r.u64();
  const auto max_retries = r.u32();
  const auto deadline_ns = r.i64();
  if (!priority || !flags || !tenant || !max_retries || !deadline_ns) {
    return std::nullopt;
  }
  WireSubmitOptions options;
  options.priority = *priority;
  options.tenant = *tenant;
  options.max_retries = *max_retries;
  if ((*flags & 1u) != 0) {
    options.deadline_ns = *deadline_ns;
  }
  return options;
}

namespace {

/// A writer holding a placeholder length prefix; end_frame patches it.
ByteWriter begin_frame(Opcode opcode, std::size_t payload_bytes) {
  ByteWriter w{kLengthPrefixBytes + payload_bytes};
  w.u32(0);
  w.u8(static_cast<std::uint8_t>(opcode));
  return w;
}

std::vector<std::uint8_t> end_frame(ByteWriter& w) {
  std::vector<std::uint8_t> frame = w.take();
  const auto length =
      static_cast<std::uint32_t>(frame.size() - kLengthPrefixBytes);
  std::memcpy(frame.data(), &length, kLengthPrefixBytes);
  return frame;
}

/// u32 count, count × f64, then the finished frame.
std::vector<std::uint8_t> f64_body(ByteWriter& w,
                                   std::span<const double> values) {
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (const double v : values) {
    w.f64(v);
  }
  return end_frame(w);
}

/// Submit / SubmitSoftmax: head, options, then count × i64 raw words.
std::vector<std::uint8_t> encode_raw_request(
    Opcode opcode, std::uint64_t id, const std::uint8_t* function,
    std::span<const std::int64_t> raws, const WireSubmitOptions& options) {
  ByteWriter w = begin_frame(opcode, 40 + 8 * raws.size());
  w.u64(id);
  if (function != nullptr) {
    w.u8(*function);
  }
  encode_submit_options(w, options);
  w.u32(static_cast<std::uint32_t>(raws.size()));
  for (const std::int64_t raw : raws) {
    w.i64(raw);
  }
  return end_frame(w);
}

}  // namespace

std::vector<std::uint8_t> encode_hello(int integer_bits, int fractional_bits,
                                       std::uint8_t functions) {
  ByteWriter w = begin_frame(Opcode::kHello, 5);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(integer_bits));
  w.u8(static_cast<std::uint8_t>(fractional_bits));
  w.u8(functions);
  return end_frame(w);
}

std::vector<std::uint8_t> encode_submit(std::uint64_t id,
                                        std::uint8_t function,
                                        std::span<const std::int64_t> raws,
                                        const WireSubmitOptions& options) {
  return encode_raw_request(Opcode::kSubmit, id, &function, raws, options);
}

std::vector<std::uint8_t> encode_submit_softmax(
    std::uint64_t id, std::span<const std::int64_t> raws,
    const WireSubmitOptions& options) {
  return encode_raw_request(Opcode::kSubmitSoftmax, id, nullptr, raws,
                            options);
}

std::vector<std::uint8_t> encode_submit_mlp(std::uint64_t id,
                                            std::span<const double> input,
                                            const WireSubmitOptions& options) {
  ByteWriter w = begin_frame(Opcode::kSubmitMlp, 39 + 8 * input.size());
  w.u64(id);
  encode_submit_options(w, options);
  return f64_body(w, input);
}

std::vector<std::uint8_t> encode_result_fixed(
    std::uint64_t id, std::span<const fp::Fixed> values) {
  ByteWriter w = begin_frame(Opcode::kResultFixed, 13 + 8 * values.size());
  w.u64(id);
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (const fp::Fixed& v : values) {
    w.i64(v.raw());
  }
  return end_frame(w);
}

std::vector<std::uint8_t> encode_result_f64(std::uint64_t id,
                                            std::span<const double> values) {
  ByteWriter w = begin_frame(Opcode::kResultF64, 13 + 8 * values.size());
  w.u64(id);
  return f64_body(w, values);
}

std::vector<std::uint8_t> encode_error(std::uint64_t id, ErrorCode code,
                                       std::string_view message) {
  // Clamp the diagnostic text to its u16 length field; codes carry the
  // semantics, the text is best-effort.
  const std::size_t n = std::min<std::size_t>(message.size(), 0xFFFF);
  ByteWriter w = begin_frame(Opcode::kError, 12 + n);
  w.u64(id);
  w.u8(static_cast<std::uint8_t>(code));
  w.u16(static_cast<std::uint16_t>(n));
  w.raw(message.data(), n);
  return end_frame(w);
}

}  // namespace nacu::net
