// NEON (AArch64 Advanced SIMD) implementations of the simd/kernels.hpp
// entry points.
//
// Compiled only on aarch64 targets (see simd/CMakeLists.txt) where Advanced
// SIMD is an architectural baseline — no extra -m flags, so unlike the x86
// TUs there is no illegal-instruction hazard; the TU still includes no repo
// headers to keep the per-ISA layering uniform.
//
// NEON has no gather instruction, so the table-lookup kernels load table
// entries one lane at a time and vectorize everything around the loads:
// format/range checks, the |raw| fold, and the half-range reconstruct
// (`neg ? one_raw − v + corr : v` as a vbsl select; the per-entry corr
// bit of corr-packed HalfSigmoid tables is unpacked during the scalar
// gather — see kernels.hpp). The qgemm MAC kernel has no loads-by-index
// and is fully vectorized: vmovl_s16 widens weights, vshlq_s32 with a
// negative count is the truncating arithmetic right shift matching the
// scalar `>> fb`, and vminq/vmaxq clamp per step exactly like the
// reference loop.

#if defined(NACU_HAVE_NEON)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

namespace nacu::simd::detail {

namespace {

inline int32x4_t add_clamp_s32(int32x4_t a, int32x4_t b, int32x4_t lo,
                               int32x4_t hi) noexcept {
  return vminq_s32(vmaxq_s32(vaddq_s32(a, b), lo), hi);
}

// Unpack one half-table entry during the scalar gather. HalfSigmoid
// (corr_packed) entries carry the sample in bits [0,14] and the
// negative-side +1 correction in bit 15 (see kernels.hpp); HalfOdd
// entries are plain signed samples with no correction.
inline void half_unpack(std::int16_t entry, bool corr_packed,
                        std::int64_t& val, std::int64_t& corr) noexcept {
  if (corr_packed) {
    const auto g = static_cast<std::uint16_t>(entry);
    val = g & 0x7FFF;
    corr = g >> 15;
  } else {
    val = entry;
    corr = 0;
  }
}

}  // namespace

std::size_t table_lookup_fixed_neon(const std::int16_t* table,
                                    std::int64_t fmt_bits,
                                    std::int64_t min_raw, const char* in,
                                    char* out, std::size_t n) {
  const int64x2_t fmt_v = vdupq_n_s64(fmt_bits);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // vld2q deinterleaves two 16-byte Fixed into [raw0, raw1] / [fmt0, fmt1].
    const int64x2x2_t v =
        vld2q_s64(reinterpret_cast<const std::int64_t*>(in + i * 16));
    const uint64x2_t eq = vceqq_s64(v.val[1], fmt_v);
    if (vgetq_lane_u64(eq, 0) == 0 || vgetq_lane_u64(eq, 1) == 0) {
      return i;
    }
    std::int64_t ys[2];
    ys[0] = table[vgetq_lane_s64(v.val[0], 0) - min_raw];
    ys[1] = table[vgetq_lane_s64(v.val[0], 1) - min_raw];
    int64x2x2_t o;
    o.val[0] = vld1q_s64(ys);
    o.val[1] = fmt_v;
    vst2q_s64(reinterpret_cast<std::int64_t*>(out + i * 16), o);
  }
  return i;
}

std::size_t table_lookup_fixed_neon_half(const std::int16_t* table,
                                         std::int64_t fmt_bits,
                                         std::int64_t one_raw, const char* in,
                                         char* out, std::size_t n) {
  const int64x2_t fmt_v = vdupq_n_s64(fmt_bits);
  const int64x2_t one_v = vdupq_n_s64(one_raw);
  const int64x2_t zero = vdupq_n_s64(0);
  const bool corr_packed = one_raw != 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2x2_t v =
        vld2q_s64(reinterpret_cast<const std::int64_t*>(in + i * 16));
    const uint64x2_t eq = vceqq_s64(v.val[1], fmt_v);
    if (vgetq_lane_u64(eq, 0) == 0 || vgetq_lane_u64(eq, 1) == 0) {
      return i;
    }
    const uint64x2_t neg = vcltq_s64(v.val[0], zero);
    const int64x2_t mag = vabsq_s64(v.val[0]);
    std::int64_t ys[2];
    std::int64_t cs[2];
    half_unpack(table[vgetq_lane_s64(mag, 0)], corr_packed, ys[0], cs[0]);
    half_unpack(table[vgetq_lane_s64(mag, 1)], corr_packed, ys[1], cs[1]);
    const int64x2_t vals = vld1q_s64(ys);
    const int64x2_t recon =
        vaddq_s64(vsubq_s64(one_v, vals), vld1q_s64(cs));
    int64x2x2_t o;
    o.val[0] = vbslq_s64(neg, recon, vals);
    o.val[1] = fmt_v;
    vst2q_s64(reinterpret_cast<std::int64_t*>(out + i * 16), o);
  }
  return i;
}

std::size_t table_lookup_raw_neon(const std::int16_t* table,
                                  std::int64_t min_raw, std::int64_t max_raw,
                                  const std::int64_t* in, std::int64_t* out,
                                  std::size_t n) {
  const int64x2_t min_v = vdupq_n_s64(min_raw);
  const int64x2_t max_v = vdupq_n_s64(max_raw);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t v = vld1q_s64(in + i);
    const uint64x2_t bad =
        vorrq_u64(vcltq_s64(v, min_v), vcgtq_s64(v, max_v));
    if ((vgetq_lane_u64(bad, 0) | vgetq_lane_u64(bad, 1)) != 0) {
      // Out-of-range raw in this pair: nothing stored yet, the scalar loop
      // resumes at i and stops exactly at the offending element.
      return i;
    }
    const int64x2_t words = vsubq_s64(v, min_v);
    out[i] = table[vgetq_lane_s64(words, 0)];
    out[i + 1] = table[vgetq_lane_s64(words, 1)];
  }
  return i;
}

std::size_t table_lookup_raw_neon_half(const std::int16_t* table,
                                       std::int64_t one_raw,
                                       std::int64_t min_raw,
                                       std::int64_t max_raw,
                                       const std::int64_t* in,
                                       std::int64_t* out, std::size_t n) {
  const int64x2_t min_v = vdupq_n_s64(min_raw);
  const int64x2_t max_v = vdupq_n_s64(max_raw);
  const int64x2_t one_v = vdupq_n_s64(one_raw);
  const int64x2_t zero = vdupq_n_s64(0);
  const bool corr_packed = one_raw != 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t v = vld1q_s64(in + i);
    const uint64x2_t bad =
        vorrq_u64(vcltq_s64(v, min_v), vcgtq_s64(v, max_v));
    if ((vgetq_lane_u64(bad, 0) | vgetq_lane_u64(bad, 1)) != 0) {
      return i;
    }
    const uint64x2_t neg = vcltq_s64(v, zero);
    const int64x2_t mag = vabsq_s64(v);
    std::int64_t ys[2];
    std::int64_t cs[2];
    half_unpack(table[vgetq_lane_s64(mag, 0)], corr_packed, ys[0], cs[0]);
    half_unpack(table[vgetq_lane_s64(mag, 1)], corr_packed, ys[1], cs[1]);
    const int64x2_t vals = vld1q_s64(ys);
    const int64x2_t recon =
        vaddq_s64(vsubq_s64(one_v, vals), vld1q_s64(cs));
    vst1q_s64(out + i, vbslq_s64(neg, recon, vals));
  }
  return i;
}

void table_lookup_i32_neon(const std::int16_t* table, const std::int32_t* in,
                           std::int32_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::int32_t idx[4];
    vst1q_s32(idx, vld1q_s32(in + i));
    std::int32_t vals[4] = {table[idx[0]], table[idx[1]], table[idx[2]],
                            table[idx[3]]};
    vst1q_s32(out + i, vld1q_s32(vals));
  }
  for (; i < n; ++i) {
    out[i] = table[in[i]];
  }
}

void qgemm_accumulate_neon(const std::int16_t* packed, std::size_t tiles,
                           std::size_t in_dim, const std::int32_t* x,
                           std::int32_t* acc, int fb, std::int32_t acc_min,
                           std::int32_t acc_max) {
  const int32x4_t lo = vdupq_n_s32(acc_min);
  const int32x4_t hi = vdupq_n_s32(acc_max);
  const int32x4_t sh = vdupq_n_s32(-fb);  // negative VSHL count = >> fb
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::int16_t* w = packed + tile * in_dim * 8;
    std::int32_t* a = acc + tile * 8;
    int32x4_t acc0 = vld1q_s32(a);
    int32x4_t acc1 = vld1q_s32(a + 4);
    for (std::size_t i = 0; i < in_dim; ++i) {
      const int16x8_t w16 = vld1q_s16(w + i * 8);
      const int32x4_t wlo = vmovl_s16(vget_low_s16(w16));
      const int32x4_t whi = vmovl_s16(vget_high_s16(w16));
      const int32x4_t xi = vdupq_n_s32(x[i]);
      // |w*x| <= 2^30 and |acc + term| < 2^31 by
      // PackedQGemm::formats_supported, so 32-bit lanes are exact.
      acc0 = add_clamp_s32(acc0, vshlq_s32(vmulq_s32(wlo, xi), sh), lo, hi);
      acc1 = add_clamp_s32(acc1, vshlq_s32(vmulq_s32(whi, xi), sh), lo, hi);
    }
    vst1q_s32(a, acc0);
    vst1q_s32(a + 4, acc1);
  }
}

}  // namespace nacu::simd::detail

#endif  // NACU_HAVE_NEON
