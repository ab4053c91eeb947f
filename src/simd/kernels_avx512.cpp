// AVX-512 implementations of the simd/kernels.hpp entry points.
//
// Compiled with -mavx512f -mavx512bw into its own TU (see
// simd/CMakeLists.txt) and, like kernels_avx2.cpp, deliberately includes NO
// repo headers: any inline function this TU instantiated could be the copy
// the linker keeps, silently planting AVX-512 instructions in code paths
// that run on narrower hosts. Fixed spans arrive as char* with the
// [int64 raw][8-byte Format] layout guaranteed by the caller's runtime
// probe (fixed_layout_is_raw_then_format).
//
// Relative to the AVX2 TU everything doubles to 16 dword lanes per step,
// gathers take k-masks (the table-lookup kernels use them to process
// ragged tails with no scalar loop at all), and the qgemm kernel runs two
// 8-wide tiles per 512-bit vector — consecutive tiles' accumulators are
// contiguous, so one load/store covers both.
//
// The gather trick is the same dword-pair scheme as AVX2 (see that TU's
// header comment): gather the aligned dword at half = word >> 1, then
// variable-shift the wanted int16 into the low bits and sign-extend.

#if defined(NACU_HAVE_AVX512)

// GCC 12 at -O2 and above reports the intrinsics' own `__m512i __Y = __Y;`
// placeholder (the undefined upper half of a cast/convert) as used
// uninitialized once they are inlined here. The lanes it names are never
// read, so silence the two warnings for the header only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <cstddef>
#include <cstdint>

namespace nacu::simd::detail {

namespace {

/// Gather table[word] for 16 int16-table indices held as dwords; @p k
/// masks which lanes gather (masked-off lanes return 0 and touch nothing).
inline __m512i gather_i16_512(const std::int16_t* table, __m512i words,
                              __mmask16 k) noexcept {
  const __m512i half = _mm512_srli_epi32(words, 1);
  const __m512i pairs = _mm512_mask_i32gather_epi32(
      _mm512_setzero_si512(), k, half, table, 4);
  const __m512i shift = _mm512_slli_epi32(
      _mm512_and_si512(words, _mm512_set1_epi32(1)), 4);
  const __m512i shifted = _mm512_srlv_epi32(pairs, shift);
  // Sign-extend the low 16 bits of each dword lane.
  return _mm512_srai_epi32(_mm512_slli_epi32(shifted, 16), 16);
}

inline __m512i add_clamp_epi32_512(__m512i a, __m512i b, __m512i lo,
                                   __m512i hi) noexcept {
  const __m512i sum = _mm512_add_epi32(a, b);
  return _mm512_min_epi32(_mm512_max_epi32(sum, lo), hi);
}

/// Compact two 8-qword vectors into one 16-dword index vector (the qword
/// values are known to fit a dword).
inline __m512i compact_qwords(__m512i a, __m512i b) noexcept {
  const __m256i ia = _mm512_cvtepi64_epi32(a);
  const __m256i ib = _mm512_cvtepi64_epi32(b);
  return _mm512_inserti64x4(_mm512_castsi256_si512(ia), ib, 1);
}

// ---- Table lookup: one body, four instantiations ----
//
// The same compile-time split as the AVX2 TU (see its comment there):
// kFixed picks the element domain — Fixed spans with a format check and an
// interleaved store, or int64 raws with a range check and a widening
// store; a stopping block issues no store — and kHalf picks the layout —
// dense table[raw − min_raw], or the half-range table[|raw|] with the
// Eq. 3 negative-side reconstruct one_raw − v + corr. HalfSigmoid
// (one_raw != 0) entries are corr-packed (kernels.hpp): vmask strips the
// bit-15 correction, cmask gates the +1 term; for HalfOdd both degenerate
// to the plain one_raw − v reconstruct.
//
// The Fixed loads split raws from formats per 128-bit lane pair, so the
// raws sit in [e0 e4 e1 e5 ...] order per vector; the widened results
// interleave back with the format qword in memory order.
//
// A ragged tail of 1–15 elements runs the same block with k-masks, as the
// i32 kernel does: masked-off qwords are neither loaded nor stored, and
// masked-off lanes neither fail the check nor gather. So every call runs
// entirely in vector code — an 8-element request included. A block that
// fails its check returns its first index and stores nothing, leaving
// the caller's scalar loop to find the exact element.
template <bool kFixed, bool kHalf>
std::size_t table_lookup(const std::int16_t* table, std::int64_t fmt_bits,
                         std::int64_t min_raw, std::int64_t max_raw,
                         std::int64_t one_raw, const char* in, char* out,
                         std::size_t n) {
  constexpr std::size_t kBytes = kFixed ? 16 : 8;
  const __m512i fmt_v = _mm512_set1_epi64(fmt_bits);
  const __m512i min_v = _mm512_set1_epi64(min_raw);
  const __m512i max_v = _mm512_set1_epi64(max_raw);
  const __m512i one_dw = _mm512_set1_epi32(static_cast<int>(one_raw));
  const bool corr_packed = one_raw != 0;
  const __m512i vmask = _mm512_set1_epi32(corr_packed ? 0x7FFF : -1);
  const __m512i cmask = _mm512_set1_epi32(corr_packed ? 1 : 0);
  const __m512i zero = _mm512_setzero_si512();
  // Element index of each dword lane of compact_qwords(a, b).
  const __m512i lane_elem =
      kFixed ? _mm512_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14,
                                 11, 15)
             : _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                 14, 15);
  // One block of @p count (1..16) elements at index i; false when an
  // element fails its check (nothing stored).
  const auto block = [&](std::size_t i, std::size_t count) {
    // live: one bit per loaded qword; k: one bit per element lane, in
    // compact_qwords order.
    const std::uint32_t live =
        count == 16 ? 0xFFFFFFFFu
                    : (1u << (count * (kBytes / 8))) - 1u;
    const __mmask16 k =
        count == 16 ? static_cast<__mmask16>(0xFFFF)
                    : _mm512_cmplt_epi32_mask(
                          lane_elem,
                          _mm512_set1_epi32(static_cast<int>(count)));
    const auto ka = static_cast<__mmask8>(k);
    const auto kb = static_cast<__mmask8>(k >> 8);
    const char* p = in + i * kBytes;
    __m512i a = zero;  // raws of the first eight elements
    __m512i b = zero;  // raws of the last eight
    if constexpr (kFixed) {
      // Each 64-byte load covers four Fixed: qwords [raw, fmt] × 4.
      const __m512i v0 =
          _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live), p + 0);
      const __m512i v1 =
          _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live >> 8), p + 64);
      const __m512i v2 = _mm512_maskz_loadu_epi64(
          static_cast<__mmask8>(live >> 16), p + 128);
      const __m512i v3 = _mm512_maskz_loadu_epi64(
          static_cast<__mmask8>(live >> 24), p + 192);
      a = _mm512_unpacklo_epi64(v0, v1);
      b = _mm512_unpacklo_epi64(v2, v3);
      const __mmask8 eq_a = _mm512_mask_cmpeq_epi64_mask(
          ka, _mm512_unpackhi_epi64(v0, v1), fmt_v);
      const __mmask8 eq_b = _mm512_mask_cmpeq_epi64_mask(
          kb, _mm512_unpackhi_epi64(v2, v3), fmt_v);
      if (eq_a != ka || eq_b != kb) {
        return false;
      }
    } else {
      a = _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live), p);
      b = _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live >> 8), p + 64);
      const __mmask8 bad =
          _mm512_mask_cmplt_epi64_mask(ka, a, min_v) |
          _mm512_mask_cmpgt_epi64_mask(ka, a, max_v) |
          _mm512_mask_cmplt_epi64_mask(kb, b, min_v) |
          _mm512_mask_cmpgt_epi64_mask(kb, b, max_v);
      if (bad != 0) {
        return false;
      }
    }
    __m512i vals = zero;
    if constexpr (kHalf) {
      // |raw| keeps |min_raw| = max_raw + 1 inside the padded table; the
      // qword sign masks concatenate into the dword lane mask directly
      // because compact_qwords preserves lane order.
      const __mmask8 neg_a = _mm512_cmplt_epi64_mask(a, zero);
      const __mmask8 neg_b = _mm512_cmplt_epi64_mask(b, zero);
      const __mmask16 neg16 = static_cast<__mmask16>(
          (static_cast<unsigned>(neg_b) << 8) | static_cast<unsigned>(neg_a));
      const __m512i g = gather_i16_512(
          table, compact_qwords(_mm512_abs_epi64(a), _mm512_abs_epi64(b)), k);
      const __m512i v = _mm512_and_si512(g, vmask);
      const __m512i corr = _mm512_and_si512(_mm512_srli_epi32(g, 15), cmask);
      vals = _mm512_mask_add_epi32(v, neg16, _mm512_sub_epi32(one_dw, v),
                                   corr);
    } else {
      vals = gather_i16_512(table,
                            compact_qwords(_mm512_sub_epi64(a, min_v),
                                           _mm512_sub_epi64(b, min_v)),
                            k);
    }
    const __m512i ys_a = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(vals));
    const __m512i ys_b =
        _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(vals, 1));
    char* q = out + i * kBytes;
    if constexpr (kFixed) {
      _mm512_mask_storeu_epi64(q + 0, static_cast<__mmask8>(live),
                               _mm512_unpacklo_epi64(ys_a, fmt_v));
      _mm512_mask_storeu_epi64(q + 64, static_cast<__mmask8>(live >> 8),
                               _mm512_unpackhi_epi64(ys_a, fmt_v));
      _mm512_mask_storeu_epi64(q + 128, static_cast<__mmask8>(live >> 16),
                               _mm512_unpacklo_epi64(ys_b, fmt_v));
      _mm512_mask_storeu_epi64(q + 192, static_cast<__mmask8>(live >> 24),
                               _mm512_unpackhi_epi64(ys_b, fmt_v));
    } else {
      _mm512_mask_storeu_epi64(q, static_cast<__mmask8>(live), ys_a);
      _mm512_mask_storeu_epi64(q + 64, static_cast<__mmask8>(live >> 8),
                               ys_b);
    }
    return true;
  };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    if (!block(i, 16)) {
      return i;
    }
  }
  if (i < n && block(i, n - i)) {
    return n;
  }
  return i;
}

}  // namespace

std::size_t table_lookup_fixed_avx512(const std::int16_t* table,
                                      std::int64_t fmt_bits,
                                      std::int64_t min_raw, const char* in,
                                      char* out, std::size_t n) {
  return table_lookup<true, false>(table, fmt_bits, min_raw, 0, 0, in, out,
                                   n);
}

std::size_t table_lookup_fixed_avx512_half(const std::int16_t* table,
                                           std::int64_t fmt_bits,
                                           std::int64_t one_raw,
                                           const char* in, char* out,
                                           std::size_t n) {
  return table_lookup<true, true>(table, fmt_bits, 0, 0, one_raw, in, out, n);
}

std::size_t table_lookup_raw_avx512(const std::int16_t* table,
                                    std::int64_t min_raw,
                                    std::int64_t max_raw,
                                    const std::int64_t* in, std::int64_t* out,
                                    std::size_t n) {
  return table_lookup<false, false>(table, 0, min_raw, max_raw, 0,
                                    reinterpret_cast<const char*>(in),
                                    reinterpret_cast<char*>(out), n);
}

std::size_t table_lookup_raw_avx512_half(const std::int16_t* table,
                                         std::int64_t one_raw,
                                         std::int64_t min_raw,
                                         std::int64_t max_raw,
                                         const std::int64_t* in,
                                         std::int64_t* out, std::size_t n) {
  return table_lookup<false, true>(table, 0, min_raw, max_raw, one_raw,
                                   reinterpret_cast<const char*>(in),
                                   reinterpret_cast<char*>(out), n);
}

void table_lookup_i32_avx512(const std::int16_t* table,
                             const std::int32_t* in, std::int32_t* out,
                             std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i words = _mm512_loadu_si512(in + i);
    _mm512_storeu_si512(out + i, gather_i16_512(table, words, 0xFFFF));
  }
  const std::size_t rem = n - i;
  if (rem != 0) {
    // Ragged tail via masked load/gather/store — no scalar loop. Masked-off
    // index lanes are zeroed by the load, so the gather mask is belt and
    // braces: neither reads out of bounds.
    const __mmask16 k = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i words = _mm512_maskz_loadu_epi32(k, in + i);
    _mm512_mask_storeu_epi32(out + i, k, gather_i16_512(table, words, k));
  }
}

void qgemm_accumulate_avx512(const std::int16_t* packed, std::size_t tiles,
                             std::size_t in_dim, const std::int32_t* x,
                             std::int32_t* acc, int fb, std::int32_t acc_min,
                             std::int32_t acc_max) {
  const __m512i lo = _mm512_set1_epi32(acc_min);
  const __m512i hi = _mm512_set1_epi32(acc_max);
  const __m128i shift = _mm_cvtsi32_si128(fb);
  std::size_t tile = 0;
  // Two 8-wide tiles per 512-bit vector: their accumulators are contiguous
  // (acc + tile*8), their weight rows are not (in_dim*8 apart), so one
  // store pairs with two half-width weight loads per step.
  for (; tile + 2 <= tiles; tile += 2) {
    const std::int16_t* w0 = packed + tile * in_dim * 8;
    const std::int16_t* w1 = packed + (tile + 1) * in_dim * 8;
    std::int32_t* a = acc + tile * 8;
    __m512i acc_v = _mm512_loadu_si512(a);
    for (std::size_t i = 0; i < in_dim; ++i) {
      const __m256i wlo = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w0 + i * 8)));
      const __m256i whi = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w1 + i * 8)));
      const __m512i w16 =
          _mm512_inserti64x4(_mm512_castsi256_si512(wlo), whi, 1);
      const __m512i xi = _mm512_set1_epi32(x[i]);
      // Same exactness argument as the AVX2 kernel: |w*x| <= 2^30 and
      // |acc + term| < 2^31 by PackedQGemm::formats_supported.
      const __m512i prod = _mm512_mullo_epi32(w16, xi);
      const __m512i term = _mm512_sra_epi32(prod, shift);
      acc_v = add_clamp_epi32_512(acc_v, term, lo, hi);
    }
    _mm512_storeu_si512(a, acc_v);
  }
  if (tile < tiles) {
    // Odd last tile: plain 256-bit ops (no VL needed — these are AVX2
    // instructions, always present alongside AVX-512F).
    const __m256i lo8 = _mm256_set1_epi32(acc_min);
    const __m256i hi8 = _mm256_set1_epi32(acc_max);
    const std::int16_t* w = packed + tile * in_dim * 8;
    std::int32_t* a = acc + tile * 8;
    __m256i acc_v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    for (std::size_t i = 0; i < in_dim; ++i) {
      const __m256i w8 = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i * 8)));
      const __m256i xi = _mm256_set1_epi32(x[i]);
      const __m256i prod = _mm256_mullo_epi32(w8, xi);
      const __m256i term = _mm256_sra_epi32(prod, shift);
      const __m256i sum = _mm256_add_epi32(acc_v, term);
      acc_v = _mm256_min_epi32(_mm256_max_epi32(sum, lo8), hi8);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a), acc_v);
  }
}

}  // namespace nacu::simd::detail

#endif  // NACU_HAVE_AVX512
