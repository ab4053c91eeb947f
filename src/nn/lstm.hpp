// LSTM cell: float reference vs NACU fixed-point forward pass.
//
// The LSTM is the paper's flagship motivation for a *reconfigurable*
// non-linear unit (§I): one cell step needs σ three times (input/forget/
// output gates) and tanh twice (candidate and output) — a fabric hosting
// LSTMs must morph between both per cycle. We run the same weights through
// a double-precision cell and a cell whose every non-linearity is a
// bit-accurate NACU evaluation, and measure the state drift.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_nacu.hpp"
#include "nn/matrix.hpp"
#include "simd/qgemm.hpp"

namespace nacu::nn {

struct LstmWeights {
  // Gate order within the stacked matrices: input, forget, candidate, output.
  MatrixD wx;              ///< [4H × D] input weights
  MatrixD wh;              ///< [4H × H] recurrent weights
  std::vector<double> b;   ///< [4H]
  std::size_t hidden = 0;
  std::size_t input = 0;

  /// Gaussian-initialised weights scaled to stay within a Q4.11 range.
  static LstmWeights random(std::size_t input, std::size_t hidden,
                            std::uint64_t seed = 11);
};

struct LstmStateF {
  std::vector<double> h;
  std::vector<double> c;
};

/// One double-precision cell step (the reference).
[[nodiscard]] LstmStateF lstm_step_ref(const LstmWeights& weights,
                                       const LstmStateF& state,
                                       const std::vector<double>& x);

class LstmFixed {
 public:
  LstmFixed(const LstmWeights& weights, const core::NacuConfig& config);

  struct State {
    std::vector<fp::Fixed> h;
    std::vector<fp::Fixed> c;
  };

  [[nodiscard]] State initial_state() const;

  /// One cell step where σ/tanh are NACU and dot products are NACU MACs.
  /// All 4H gate non-linearities of the step go through one batched σ pass
  /// and one batched tanh pass on core::BatchNacu (plus a batched tanh over
  /// the new cell states) — bit-identical to per-gate scalar evaluation.
  /// Throws std::invalid_argument unless @p x holds the cell's input width
  /// and @p state's h and c each hold its hidden width.
  [[nodiscard]] State step(const State& state,
                           const std::vector<double>& x) const;

  [[nodiscard]] const core::Nacu& unit() const noexcept {
    return unit_.unit();
  }
  [[nodiscard]] fp::Format format() const noexcept { return fmt_; }

 private:
  [[nodiscard]] fp::Fixed gate_preactivation(std::size_t row,
                                             const std::vector<fp::Fixed>& xq,
                                             const State& state) const;
  /// All 4H gate pre-activations of one step (row order: i, f, cand, o) —
  /// through the fused wx/wh GEMV kernels when the formats allow, else one
  /// gate_preactivation per row. Bit-identical either way.
  [[nodiscard]] std::vector<fp::Fixed> gate_preactivations(
      const std::vector<fp::Fixed>& xq, const State& state) const;

  LstmWeights weights_;
  core::BatchNacu unit_;
  fp::Format fmt_;
  fp::Format acc_fmt_;
  /// Weights/biases quantised onto fmt_ once at construction (the float
  /// originals in weights_ are kept only for shape bookkeeping). Row-major
  /// [4H × D] and [4H × H].
  std::vector<std::int64_t> wx_raw_;
  std::vector<std::int64_t> wh_raw_;
  std::vector<std::int64_t> b_raw_;
  simd::PackedQGemm wx_packed_;
  simd::PackedQGemm wh_packed_;
  bool fused_ok_ = false;
};

/// Mean |h_fixed − h_ref| after running @p steps of the same random input
/// sequence through both cells.
[[nodiscard]] double lstm_state_drift(const LstmWeights& weights,
                                      const core::NacuConfig& config,
                                      std::size_t steps,
                                      std::uint64_t seed = 13);

}  // namespace nacu::nn
