// Exhaustive differential proof that the batch evaluation engine is
// bit-identical to the scalar Fig. 2 datapath.
//
// The Q4.11 datapath has exactly 2^16 representable inputs, so "for every
// representable input" is a loop, not a sample: each config variant runs
// σ/tanh/e^x over the entire domain through BatchNacu (table + pool path)
// and compares raw-for-raw against scalar core::Nacu calls. Softmax is
// checked element-wise on randomized batches, and the batched dense-layer
// reference against its scalar overload.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cgra/fabric.hpp"
#include "core/batch_nacu.hpp"
#include "nn/rng.hpp"

namespace nacu::core {
namespace {

/// The ≥4 NacuConfig variants the differential sweep covers: every switch
/// that changes the datapath's bit behaviour gets a variant.
std::vector<std::pair<const char*, NacuConfig>> config_variants() {
  std::vector<std::pair<const char*, NacuConfig>> variants;
  variants.emplace_back("default", config_for_bits(16));

  NacuConfig general = config_for_bits(16);
  general.use_bit_trick_units = false;  // general subtractors (§VII ablation)
  variants.emplace_back("general-subtractors", general);

  NacuConfig truncate = config_for_bits(16);
  truncate.output_rounding = fp::Rounding::Truncate;
  variants.emplace_back("truncate-rounding", truncate);

  NacuConfig approx = config_for_bits(16);
  approx.approximate_reciprocal = true;  // §VIII PWL reciprocal
  variants.emplace_back("approx-reciprocal", approx);

  NacuConfig refined = config_for_bits(16);
  refined.refine_quantised_lut = true;
  variants.emplace_back("refined-lut", refined);
  return variants;
}

std::vector<fp::Fixed> full_domain(fp::Format fmt) {
  std::vector<fp::Fixed> xs;
  xs.reserve(static_cast<std::size_t>(fmt.max_raw() - fmt.min_raw() + 1));
  for (std::int64_t raw = fmt.min_raw(); raw <= fmt.max_raw(); ++raw) {
    xs.push_back(fp::Fixed::from_raw(raw, fmt));
  }
  return xs;
}

fp::Fixed scalar_eval(const Nacu& unit, BatchNacu::Function f, fp::Fixed x) {
  switch (f) {
    case BatchNacu::Function::Sigmoid:
      return unit.sigmoid(x);
    case BatchNacu::Function::Tanh:
      return unit.tanh(x);
    default:
      return unit.exp(x);
  }
}

constexpr BatchNacu::Function kFunctions[] = {BatchNacu::Function::Sigmoid,
                                              BatchNacu::Function::Tanh,
                                              BatchNacu::Function::Exp};
const char* function_name(BatchNacu::Function f) {
  switch (f) {
    case BatchNacu::Function::Sigmoid:
      return "sigmoid";
    case BatchNacu::Function::Tanh:
      return "tanh";
    default:
      return "exp";
  }
}

TEST(BatchDifferential, ExhaustiveBitIdenticalAcrossConfigs) {
  for (const auto& [name, config] : config_variants()) {
    const Nacu scalar{config};
    // A low parallel threshold forces the pool fan-out path over the full
    // domain, so the sweep also proves chunking never changes results.
    BatchNacu::Options options;
    options.parallel_threshold = 1 << 10;
    options.parallel_grain = 1 << 10;
    const BatchNacu batch{config, options};
    ASSERT_TRUE(batch.table_cacheable());
    const std::vector<fp::Fixed> xs = full_domain(config.format);
    for (const BatchNacu::Function f : kFunctions) {
      const std::vector<fp::Fixed> got = batch.evaluate(f, xs);
      ASSERT_EQ(got.size(), xs.size());
      EXPECT_TRUE(batch.table_built(f));
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const fp::Fixed expected = scalar_eval(scalar, f, xs[i]);
        if (got[i].raw() != expected.raw()) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << name << " " << function_name(f) << " at raw "
                          << xs[i].raw() << ": batch " << got[i].raw()
                          << " != scalar " << expected.raw();
          }
        }
      }
      EXPECT_EQ(mismatches, 0u)
          << name << " " << function_name(f) << " total mismatches";
    }
  }
}

TEST(BatchDifferential, SmallBatchesUseScalarPathBitIdentically) {
  // Below table_threshold a fresh engine must not build the table — and
  // must still match the scalar datapath exactly.
  const NacuConfig config = config_for_bits(16);
  const Nacu scalar{config};
  const BatchNacu batch{config};
  nn::Rng rng{29};
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<fp::Fixed> xs;
    const std::size_t n = 1 + rng.below(batch.options().table_threshold - 1);
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(
          fp::Fixed::from_double(rng.uniform(-8.0, 8.0), config.format));
    }
    for (const BatchNacu::Function f : kFunctions) {
      EXPECT_FALSE(batch.table_built(f));
      const std::vector<fp::Fixed> got = batch.evaluate(f, xs);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].raw(), scalar_eval(scalar, f, xs[i]).raw())
            << function_name(f) << " trial " << trial << " element " << i;
      }
    }
  }
}

TEST(BatchDifferential, RawVariantMatchesFixedVariant) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu batch{config};
  const std::vector<fp::Fixed> xs = full_domain(config.format);
  std::vector<std::int64_t> raws;
  raws.reserve(xs.size());
  for (const fp::Fixed& x : xs) {
    raws.push_back(x.raw());
  }
  for (const BatchNacu::Function f : kFunctions) {
    const std::vector<fp::Fixed> fixed_out = batch.evaluate(f, xs);
    std::vector<std::int64_t> raw_out(raws.size(), 0);
    batch.evaluate_raw(f, raws, raw_out);
    for (std::size_t i = 0; i < raws.size(); ++i) {
      ASSERT_EQ(raw_out[i], fixed_out[i].raw())
          << function_name(f) << " at " << raws[i];
    }
  }
}

TEST(BatchDifferential, RejectsMismatchedSizesAndFormats) {
  const BatchNacu batch{config_for_bits(16)};
  std::vector<fp::Fixed> in(4, fp::Fixed::zero(batch.format()));
  std::vector<fp::Fixed> out(3, fp::Fixed::zero(batch.format()));
  EXPECT_THROW(batch.evaluate(BatchNacu::Function::Sigmoid, in, out),
               std::invalid_argument);
  std::vector<fp::Fixed> wrong(4, fp::Fixed::zero(fp::Format{2, 9}));
  std::vector<fp::Fixed> out4(4, fp::Fixed::zero(batch.format()));
  EXPECT_THROW(batch.evaluate(BatchNacu::Function::Sigmoid, wrong, out4),
               std::invalid_argument);
  const std::vector<std::int64_t> oob{batch.format().max_raw() + 1};
  std::vector<std::int64_t> oob_out(1, 0);
  EXPECT_THROW(
      batch.evaluate_raw(BatchNacu::Function::Sigmoid, oob, oob_out),
      std::out_of_range);
}

TEST(BatchDifferential, EmptyBatchesAreNoOps) {
  const BatchNacu batch{config_for_bits(16)};
  EXPECT_TRUE(batch.evaluate(BatchNacu::Function::Sigmoid,
                             std::span<const fp::Fixed>{})
                  .empty());
  EXPECT_TRUE(batch.softmax(std::span<const fp::Fixed>{}).empty());
}

TEST(BatchDifferential, SoftmaxMatchesScalarElementWise) {
  // Randomized batches across the config variants (the approximate-
  // reciprocal variant exercises the §VIII shared-reciprocal path).
  for (const auto& [name, config] : config_variants()) {
    const Nacu scalar{config};
    const BatchNacu batch{config};
    nn::Rng rng{41};
    for (int trial = 0; trial < 24; ++trial) {
      const std::size_t n = 1 + rng.below(64);
      std::vector<fp::Fixed> xs;
      for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(
            fp::Fixed::from_double(rng.uniform(-8.0, 8.0), config.format));
      }
      const std::vector<fp::Fixed> expected = scalar.softmax(xs);
      const std::vector<fp::Fixed> got = batch.softmax(xs);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].raw(), expected[i].raw())
            << name << " trial " << trial << " element " << i;
      }
    }
  }
}

TEST(BatchDifferential, SoftmaxParallelPathMatchesScalar) {
  // A batch large enough to fan out across the pool.
  const NacuConfig config = config_for_bits(16);
  const Nacu scalar{config};
  BatchNacu::Options options;
  options.parallel_threshold = 1 << 8;
  options.parallel_grain = 1 << 8;
  const BatchNacu batch{config, options};
  nn::Rng rng{43};
  std::vector<fp::Fixed> xs;
  for (std::size_t i = 0; i < 4096; ++i) {
    xs.push_back(
        fp::Fixed::from_double(rng.uniform(-8.0, 8.0), config.format));
  }
  const std::vector<fp::Fixed> expected = scalar.softmax(xs);
  const std::vector<fp::Fixed> got = batch.softmax(xs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(got[i].raw(), expected[i].raw()) << i;
  }
}

TEST(BatchDifferential, WideFormatsFallBackToScalarDatapath) {
  // A 20-bit datapath has no dense table; the batch engine must still be
  // bit-identical through the chunked scalar path.
  const NacuConfig config = config_for_bits(20);
  const Nacu scalar{config};
  BatchNacu::Options options;
  options.parallel_threshold = 1 << 8;
  const BatchNacu batch{config, options};
  EXPECT_FALSE(batch.table_cacheable());
  EXPECT_EQ(batch.table_bytes(), 0u);
  nn::Rng rng{47};
  std::vector<fp::Fixed> xs;
  for (std::size_t i = 0; i < 2048; ++i) {
    xs.push_back(
        fp::Fixed::from_double(rng.uniform(-8.0, 8.0), config.format));
  }
  for (const BatchNacu::Function f : kFunctions) {
    batch.warm(f);  // must be a safe no-op: there is no table to build
    const std::vector<fp::Fixed> got = batch.evaluate(f, xs);
    EXPECT_FALSE(batch.table_built(f));
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(got[i].raw(), scalar_eval(scalar, f, xs[i]).raw())
          << function_name(f) << " element " << i;
    }
  }
  // The raw-path and softmax fall back identically.
  std::vector<std::int64_t> raw_in;
  std::vector<std::int64_t> raw_out(256);
  std::vector<fp::Fixed> sm_in;
  for (std::size_t i = 0; i < 256; ++i) {
    raw_in.push_back(xs[i].raw());
    sm_in.push_back(xs[i]);
  }
  batch.evaluate_raw(BatchNacu::Function::Tanh, raw_in, raw_out);
  for (std::size_t i = 0; i < raw_in.size(); ++i) {
    ASSERT_EQ(raw_out[i], scalar.tanh(xs[i]).raw()) << i;
  }
  const std::vector<fp::Fixed> sm_batch = batch.softmax(sm_in);
  const std::vector<fp::Fixed> sm_scalar = scalar.softmax(sm_in);
  ASSERT_EQ(sm_batch.size(), sm_scalar.size());
  for (std::size_t i = 0; i < sm_batch.size(); ++i) {
    ASSERT_EQ(sm_batch[i].raw(), sm_scalar[i].raw()) << i;
  }
}

TEST(BatchDifferential, DenseLayerReferenceOverloadsAgree) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu batch{config};
  nn::Rng rng{53};
  for (const std::uint32_t function : {0u, 1u, 2u, cgra::kLinearFunction}) {
    std::vector<std::vector<double>> weights(5, std::vector<double>(7));
    std::vector<double> biases(5);
    for (auto& row : weights) {
      for (double& v : row) {
        v = rng.uniform(-0.5, 0.5);
      }
    }
    for (double& v : biases) {
      v = rng.uniform(-0.5, 0.5);
    }
    const cgra::DenseLayer layer =
        cgra::DenseLayer::quantise(weights, biases, function, config.format);
    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 7; ++i) {
      inputs.push_back(
          fp::Fixed::from_double(rng.uniform(-1.0, 1.0), config.format)
              .raw());
    }
    EXPECT_EQ(cgra::dense_layer_reference(layer, inputs, batch),
              cgra::dense_layer_reference(layer, inputs, config))
        << "function " << function;
  }
}

}  // namespace
}  // namespace nacu::core
