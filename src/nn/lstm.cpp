#include "nn/lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nacu::nn {

namespace {

double sigmoid_ref(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

LstmWeights LstmWeights::random(std::size_t input, std::size_t hidden,
                                std::uint64_t seed) {
  Rng rng{seed};
  LstmWeights w;
  w.input = input;
  w.hidden = hidden;
  w.wx = MatrixD{4 * hidden, input};
  w.wh = MatrixD{4 * hidden, hidden};
  w.b.assign(4 * hidden, 0.0);
  const double scale = 0.5 / std::sqrt(static_cast<double>(hidden));
  for (double& v : w.wx.data()) {
    v = scale * rng.gaussian();
  }
  for (double& v : w.wh.data()) {
    v = scale * rng.gaussian();
  }
  // Forget-gate bias of +1 (conventional initialisation).
  for (std::size_t i = hidden; i < 2 * hidden; ++i) {
    w.b[i] = 1.0;
  }
  return w;
}

LstmStateF lstm_step_ref(const LstmWeights& weights, const LstmStateF& state,
                         const std::vector<double>& x) {
  const std::size_t h = weights.hidden;
  std::vector<double> pre(4 * h, 0.0);
  for (std::size_t r = 0; r < 4 * h; ++r) {
    double acc = weights.b[r];
    for (std::size_t i = 0; i < weights.input; ++i) {
      acc += weights.wx(r, i) * x[i];
    }
    for (std::size_t i = 0; i < h; ++i) {
      acc += weights.wh(r, i) * state.h[i];
    }
    pre[r] = acc;
  }
  LstmStateF next;
  next.h.resize(h);
  next.c.resize(h);
  for (std::size_t i = 0; i < h; ++i) {
    const double ig = sigmoid_ref(pre[i]);
    const double fg = sigmoid_ref(pre[h + i]);
    const double cand = std::tanh(pre[2 * h + i]);
    const double og = sigmoid_ref(pre[3 * h + i]);
    next.c[i] = fg * state.c[i] + ig * cand;
    next.h[i] = og * std::tanh(next.c[i]);
  }
  return next;
}

LstmFixed::LstmFixed(const LstmWeights& weights,
                     const core::NacuConfig& config)
    : weights_{weights},
      unit_{config},
      fmt_{config.format},
      acc_fmt_{config.format.integer_bits() + 6,
               config.format.fractional_bits()} {
  // Quantise every weight/bias once — step() used to re-quantise each
  // weight on every MAC. from_double is deterministic, so the raws are the
  // bits those calls produced.
  const std::size_t rows4 = 4 * weights_.hidden;
  wx_raw_.reserve(rows4 * weights_.input);
  wh_raw_.reserve(rows4 * weights_.hidden);
  b_raw_.reserve(rows4);
  for (std::size_t r = 0; r < rows4; ++r) {
    for (std::size_t i = 0; i < weights_.input; ++i) {
      wx_raw_.push_back(fp::Fixed::from_double(weights_.wx(r, i), fmt_).raw());
    }
    for (std::size_t i = 0; i < weights_.hidden; ++i) {
      wh_raw_.push_back(fp::Fixed::from_double(weights_.wh(r, i), fmt_).raw());
    }
    b_raw_.push_back(fp::Fixed::from_double(weights_.b[r], fmt_).raw());
  }
  fused_ok_ = simd::PackedQGemm::formats_supported(fmt_, acc_fmt_);
  if (fused_ok_) {
    wx_packed_ = simd::PackedQGemm{
        rows4, weights_.input, [this](std::size_t o, std::size_t i) {
          return wx_raw_[o * weights_.input + i];
        }};
    wh_packed_ = simd::PackedQGemm{
        rows4, weights_.hidden, [this](std::size_t o, std::size_t i) {
          return wh_raw_[o * weights_.hidden + i];
        }};
  }
}

LstmFixed::State LstmFixed::initial_state() const {
  State s;
  s.h.assign(weights_.hidden, fp::Fixed::zero(fmt_));
  s.c.assign(weights_.hidden, fp::Fixed::zero(fmt_));
  return s;
}

fp::Fixed LstmFixed::gate_preactivation(std::size_t row,
                                        const std::vector<fp::Fixed>& xq,
                                        const State& state) const {
  fp::Fixed acc =
      fp::Fixed::from_raw(b_raw_[row], fmt_).requantize(acc_fmt_);
  for (std::size_t i = 0; i < weights_.input; ++i) {
    acc = unit_.unit().mac(
        acc, fp::Fixed::from_raw(wx_raw_[row * weights_.input + i], fmt_),
        xq[i]);
  }
  for (std::size_t i = 0; i < weights_.hidden; ++i) {
    acc = unit_.unit().mac(
        acc, fp::Fixed::from_raw(wh_raw_[row * weights_.hidden + i], fmt_),
        state.h[i]);
  }
  return acc.requantize(fmt_, fp::Rounding::Truncate, fp::Overflow::Saturate);
}

std::vector<fp::Fixed> LstmFixed::gate_preactivations(
    const std::vector<fp::Fixed>& xq, const State& state) const {
  const std::size_t rows4 = 4 * weights_.hidden;
  bool fused = fused_ok_;
  if (fused) {
    for (const fp::Fixed& v : xq) {
      if (v.format() != fmt_) {
        fused = false;
        break;
      }
    }
    for (const fp::Fixed& v : state.h) {
      if (fused && v.format() != fmt_) {
        fused = false;
      }
    }
  }
  std::vector<fp::Fixed> pre;
  pre.reserve(rows4);
  if (fused) {
    // Two fused GEMV passes per step: the wx chain first, the wh chain
    // continuing on the same accumulators — the exact MAC order of
    // gate_preactivation.
    const simd::Backend backend = unit_.backend();
    const int fb = fmt_.fractional_bits();
    std::vector<std::int32_t> xv(xq.size());
    for (std::size_t i = 0; i < xq.size(); ++i) {
      xv[i] = static_cast<std::int32_t>(xq[i].raw());
    }
    std::vector<std::int32_t> hv(state.h.size());
    for (std::size_t i = 0; i < state.h.size(); ++i) {
      hv[i] = static_cast<std::int32_t>(state.h[i].raw());
    }
    std::vector<std::int32_t> acc(wx_packed_.padded_out(), 0);
    for (std::size_t r = 0; r < rows4; ++r) {
      acc[r] = static_cast<std::int32_t>(b_raw_[r]);
    }
    const auto acc_min = static_cast<std::int32_t>(acc_fmt_.min_raw());
    const auto acc_max = static_cast<std::int32_t>(acc_fmt_.max_raw());
    wx_packed_.accumulate(backend, xv.data(), acc.data(), fb, acc_min,
                          acc_max);
    wh_packed_.accumulate(backend, hv.data(), acc.data(), fb, acc_min,
                          acc_max);
    const std::int64_t lo = fmt_.min_raw();
    const std::int64_t hi = fmt_.max_raw();
    for (std::size_t r = 0; r < rows4; ++r) {
      std::int64_t raw = acc[r];
      if (raw < lo) {
        raw = lo;
      } else if (raw > hi) {
        raw = hi;
      }
      pre.push_back(fp::Fixed::from_raw_unchecked(raw, fmt_));
    }
    return pre;
  }
  for (std::size_t r = 0; r < rows4; ++r) {
    pre.push_back(gate_preactivation(r, xq, state));
  }
  return pre;
}

LstmFixed::State LstmFixed::step(const State& state,
                                 const std::vector<double>& x) const {
  const obs::TraceSpan span{"LstmFixed::step"};
  static obs::Counter& steps = obs::counter("nn.lstm.steps");
  static obs::Histogram& step_ns = obs::histogram("nn.lstm.step_ns");
  const obs::ScopedTimer timer{step_ns};
  steps.add();
  const std::size_t h = weights_.hidden;
  if (x.size() != weights_.input || state.h.size() != h ||
      state.c.size() != h) {
    throw std::invalid_argument(
        "LstmFixed::step: x, h or c does not match the cell's widths");
  }
  std::vector<fp::Fixed> xq;
  xq.reserve(x.size());
  for (const double v : x) {
    xq.push_back(fp::Fixed::from_double(v, fmt_));
  }
  // Gate pre-activations for the whole step (row order: i, f, cand, o),
  // then the σ/tanh mix of §I as two batch passes: σ over the 3H gate rows
  // (input, forget, output), tanh over the H candidate rows.
  const std::vector<fp::Fixed> pre = gate_preactivations(xq, state);
  std::vector<fp::Fixed> sig_pre;
  sig_pre.reserve(3 * h);
  std::vector<fp::Fixed> tanh_pre;
  tanh_pre.reserve(h);
  sig_pre.insert(sig_pre.end(), pre.begin(), pre.begin() + 2 * h);
  tanh_pre.insert(tanh_pre.end(), pre.begin() + 2 * h, pre.begin() + 3 * h);
  sig_pre.insert(sig_pre.end(), pre.begin() + 3 * h, pre.end());
  unit_.evaluate(core::BatchNacu::Function::Sigmoid, sig_pre, sig_pre);
  unit_.evaluate(core::BatchNacu::Function::Tanh, tanh_pre, tanh_pre);

  State next;
  next.c.reserve(h);
  for (std::size_t i = 0; i < h; ++i) {
    // c' = fg·c + ig·cand through the MAC (two accumulate steps).
    fp::Fixed c_acc = fp::Fixed::zero(acc_fmt_);
    c_acc = unit_.unit().mac(c_acc, sig_pre[h + i], state.c[i]);
    c_acc = unit_.unit().mac(c_acc, sig_pre[i], tanh_pre[i]);
    next.c.push_back(c_acc.requantize(fmt_, fp::Rounding::Truncate,
                                      fp::Overflow::Saturate));
  }
  // h' = og · tanh(c'): one more batch tanh pass over the new cell states.
  std::vector<fp::Fixed> tanh_c = unit_.evaluate(
      core::BatchNacu::Function::Tanh, next.c);
  next.h.reserve(h);
  for (std::size_t i = 0; i < h; ++i) {
    next.h.push_back(
        tanh_c[i].mul(sig_pre[2 * h + i], fmt_, fp::Rounding::Truncate));
  }
  return next;
}

double lstm_state_drift(const LstmWeights& weights,
                        const core::NacuConfig& config, std::size_t steps,
                        std::uint64_t seed) {
  LstmFixed fixed{weights, config};
  LstmFixed::State fixed_state = fixed.initial_state();
  LstmStateF ref_state;
  ref_state.h.assign(weights.hidden, 0.0);
  ref_state.c.assign(weights.hidden, 0.0);
  Rng rng{seed};
  double drift_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<double> x(weights.input);
    for (double& v : x) {
      v = rng.uniform(-1.0, 1.0);
    }
    ref_state = lstm_step_ref(weights, ref_state, x);
    fixed_state = fixed.step(fixed_state, x);
    for (std::size_t i = 0; i < weights.hidden; ++i) {
      drift_sum += std::abs(fixed_state.h[i].to_double() - ref_state.h[i]);
      ++count;
    }
  }
  return drift_sum / static_cast<double>(count);
}

}  // namespace nacu::nn
