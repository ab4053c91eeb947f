#include "net/client.hpp"

#include <stdexcept>
#include <utility>

namespace nacu::net {

Client::Client(std::uint16_t port) : socket_{connect_loopback(port)} {
  const auto hello = socket_.valid() ? read_payload() : std::nullopt;
  if (!hello) {
    return;
  }
  ByteReader r{*hello};
  const auto opcode = r.u8();
  const auto version = r.u8();
  const auto ib = r.u8();
  const auto fb = r.u8();
  if (!opcode || static_cast<Opcode>(*opcode) != Opcode::kHello || !version ||
      *version != kProtocolVersion || !ib || !fb) {
    return;
  }
  format_ = fp::Format{*ib, *fb};
  valid_ = true;
}

std::optional<std::span<const std::uint8_t>> Client::read_payload() {
  std::span<const std::uint8_t> payload;
  for (;;) {
    switch (in_.next(payload, kMaxFrameBytes)) {
      case FrameBuffer::Next::kFrame:
        return payload;
      case FrameBuffer::Next::kBroken:
        return std::nullopt;
      case FrameBuffer::Next::kNeedMore:
        if (in_.fill(socket_) == FrameBuffer::Fill::kClosed) {
          return std::nullopt;
        }
        break;
    }
  }
}

std::uint64_t Client::send(const std::vector<std::uint8_t>& frame) {
  if (!valid_ || !socket_.send_all(frame.data(), frame.size())) {
    return 0;
  }
  return next_id_++;
}

std::uint64_t Client::send_submit(core::BatchNacu::Function function,
                                  std::span<const fp::Fixed> input,
                                  const WireSubmitOptions& options) {
  std::vector<std::int64_t> raws;
  raws.reserve(input.size());
  for (const fp::Fixed& v : input) {
    raws.push_back(v.raw());
  }
  return send(encode_submit(next_id_, static_cast<std::uint8_t>(function),
                            raws, options));
}

std::uint64_t Client::send_softmax(std::span<const fp::Fixed> logits,
                                   const WireSubmitOptions& options) {
  std::vector<std::int64_t> raws;
  raws.reserve(logits.size());
  for (const fp::Fixed& v : logits) {
    raws.push_back(v.raw());
  }
  return send(encode_submit_softmax(next_id_, raws, options));
}

std::uint64_t Client::send_mlp(std::span<const double> input,
                               const WireSubmitOptions& options) {
  return send(encode_submit_mlp(next_id_, input, options));
}

std::optional<Client::Response> Client::read_response() {
  if (!valid_) {
    return std::nullopt;
  }
  const auto payload = read_payload();
  if (!payload) {
    return std::nullopt;
  }
  ByteReader r{*payload};
  const auto opcode = r.u8();
  const auto id = r.u64();
  if (!opcode || !id) {
    return std::nullopt;
  }
  Response response;
  response.id = *id;
  switch (static_cast<Opcode>(*opcode)) {
    case Opcode::kResultFixed:
    case Opcode::kResultF64: {
      const auto count = r.u32();
      if (!count || r.remaining() < std::size_t{*count} * 8) {
        return std::nullopt;
      }
      const bool fixed = static_cast<Opcode>(*opcode) == Opcode::kResultFixed;
      fixed ? response.values.reserve(*count) : response.doubles.reserve(*count);
      for (std::uint32_t i = 0; i < *count; ++i) {
        if (fixed) {
          response.values.push_back(fp::Fixed::from_raw(*r.i64(), format_));
        } else {
          response.doubles.push_back(*r.f64());
        }
      }
      return response;
    }
    case Opcode::kError: {
      const auto code = r.u8();
      const auto length = r.u16();
      if (!code || !length || r.remaining() < *length) {
        return std::nullopt;
      }
      response.error = static_cast<ErrorCode>(*code);
      response.message.assign(
          reinterpret_cast<const char*>(payload->data() +
                                        (payload->size() - r.remaining())),
          *length);
      return response;
    }
    default:
      return std::nullopt;
  }
}

std::vector<fp::Fixed> Client::call(core::BatchNacu::Function function,
                                    std::span<const fp::Fixed> input) {
  const std::uint64_t id = send_submit(function, input);
  if (id == 0) {
    throw std::runtime_error{"net: send failed"};
  }
  std::optional<Response> response = read_response();
  if (!response || response->id != id) {
    throw std::runtime_error{"net: connection closed mid-call"};
  }
  if (!response->ok()) {
    throw std::runtime_error{std::string{"net: "} +
                             error_code_name(response->error) + ": " +
                             response->message};
  }
  return std::move(response->values);
}

}  // namespace nacu::net
