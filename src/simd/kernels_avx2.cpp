// AVX2 implementations of the simd/kernels.hpp entry points.
//
// This TU is compiled with -mavx2 (see simd/CMakeLists.txt) and must stay
// self-contained: it deliberately includes NO repo headers, because any
// inline function this TU instantiates could be the copy the linker keeps,
// silently planting AVX2 instructions in code paths that run on non-AVX2
// hosts. Fixed spans arrive as char* and the [int64 raw][8-byte Format]
// layout is guaranteed by the caller's runtime probe
// (fixed_layout_is_raw_then_format).
//
// Dense-table gather without out-of-bounds reads: the tables are int16 but
// _mm256_i32gather_epi32 reads 4 bytes per lane, so gathering at byte
// offset 2*word would read past the end for the last entry. Instead gather
// the aligned dword pair at half = word >> 1 (max byte touched is
// 4*((2^w-1)>>1) + 3 = 2^(w+1) - 1, the table's last byte), then shift the
// wanted half into the low 16 bits with a per-lane variable shift and
// sign-extend. One gather replaces 8 dependent loads.

#if defined(NACU_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace nacu::simd::detail {

namespace {

/// Gather table[word] for 8 int16-table indices held as dwords.
inline __m256i gather_i16(const std::int16_t* table, __m256i words) noexcept {
  const __m256i half = _mm256_srli_epi32(words, 1);
  const __m256i pairs = _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(table), half, 4);
  const __m256i shift =
      _mm256_slli_epi32(_mm256_and_si256(words, _mm256_set1_epi32(1)), 4);
  const __m256i shifted = _mm256_srlv_epi32(pairs, shift);
  // Sign-extend the low 16 bits of each dword lane.
  return _mm256_srai_epi32(_mm256_slli_epi32(shifted, 16), 16);
}

/// Compact the low dwords of two 4-qword vectors into one 8-dword vector
/// (a's four lanes, then b's), for qword values known to fit a dword.
inline __m256i compact_qwords(__m256i a, __m256i b) noexcept {
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(a, low_dwords),
                            _mm256_permutevar8x32_epi32(b, low_dwords), 0xF0);
}

/// clamp(add) in int32 lanes. The callers guarantee |a + b| < 2^31.
inline __m256i add_clamp_epi32(__m256i a, __m256i b, __m256i lo,
                               __m256i hi) noexcept {
  const __m256i sum = _mm256_add_epi32(a, b);
  return _mm256_min_epi32(_mm256_max_epi32(sum, lo), hi);
}

// ---- Table lookup: one body, four instantiations ----
//
// Element domain (kFixed): 16-byte Fixed spans, where a block holding any
// element of a foreign format stops the kernel and results are stored
// interleaved with the format qword; or plain int64 raws, where a block
// holding any raw outside [min_raw, max_raw] stops it and results are
// stored sign-widened. A stopping block issues no store, so the scalar
// loop resumes at the returned index and pinpoints the offending element.
//
// Layout (kHalf): dense gathers table[raw − min_raw]. Half-range
// (TableKind::HalfSigmoid / HalfOdd) storage holds only the non-negative
// half, entries[i] = f(+i) for i <= max_raw, plus a pre-inverted slot at
// max_raw + 1 covering min_raw (|min_raw| = max_raw + 1, so plain |raw|
// indexing needs no special case). The negative side reconstructs in
// registers via the paper's Eq. 3 symmetry: out = neg ? one_raw − v +
// corr : v, where HalfSigmoid entries (one_raw = 2^fb) are corr-packed —
// sample in bits [0,14], +1 correction in bit 15 (see kernels.hpp) — and
// HalfOdd entries (one_raw = 0) are plain signed samples. One mask pair
// makes the same lane sequence serve both: vmask strips the correction
// bit (all-ones for odd) and cmask gates the +1 term.
//
// The Fixed loads split raws from formats with unpacklo/hi, which leaves
// the raws in qword order [0,2,1,3] per vector. The lookup is lane-wise,
// and after widening, unpacklo/hi against the format qword restores
// memory order, so the interleaved order is kept on purpose.
template <bool kFixed, bool kHalf>
std::size_t table_lookup(const std::int16_t* table, std::int64_t fmt_bits,
                         std::int64_t min_raw, std::int64_t max_raw,
                         std::int64_t one_raw, const char* in, char* out,
                         std::size_t n) {
  constexpr std::size_t kBytes = kFixed ? 16 : 8;
  const __m256i fmt_v = _mm256_set1_epi64x(fmt_bits);
  const __m256i min_v = _mm256_set1_epi64x(min_raw);
  const __m256i max_v = _mm256_set1_epi64x(max_raw);
  const __m256i one_dw = _mm256_set1_epi32(static_cast<int>(one_raw));
  const bool packed = one_raw != 0;
  const __m256i vmask = _mm256_set1_epi32(packed ? 0x7FFF : -1);
  const __m256i cmask = _mm256_set1_epi32(packed ? 1 : 0);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const char* p = in + i * kBytes;
    __m256i a = zero;  // raws of the first four elements
    __m256i b = zero;  // raws of the last four
    if constexpr (kFixed) {
      // Each 32-byte load covers two Fixed: qwords [raw, fmt, raw', fmt'].
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 0));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
      const __m256i v2 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 64));
      const __m256i v3 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 96));
      a = _mm256_unpacklo_epi64(v0, v1);
      b = _mm256_unpacklo_epi64(v2, v3);
      const __m256i eq_a =
          _mm256_cmpeq_epi64(_mm256_unpackhi_epi64(v0, v1), fmt_v);
      const __m256i eq_b =
          _mm256_cmpeq_epi64(_mm256_unpackhi_epi64(v2, v3), fmt_v);
      if (_mm256_movemask_epi8(_mm256_and_si256(eq_a, eq_b)) != -1) {
        return i;
      }
    } else {
      a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
      const __m256i bad = _mm256_or_si256(
          _mm256_or_si256(_mm256_cmpgt_epi64(min_v, a),
                          _mm256_cmpgt_epi64(a, max_v)),
          _mm256_or_si256(_mm256_cmpgt_epi64(min_v, b),
                          _mm256_cmpgt_epi64(b, max_v)));
      if (_mm256_movemask_epi8(bad) != 0) {
        return i;
      }
    }
    __m256i vals = zero;
    if constexpr (kHalf) {
      // |raw| via the two's-complement identity (x ^ m) − m with m the
      // all-ones negative mask; |min_raw| = max_raw + 1 stays in range.
      const __m256i neg_a = _mm256_cmpgt_epi64(zero, a);
      const __m256i neg_b = _mm256_cmpgt_epi64(zero, b);
      const __m256i mag_a =
          _mm256_sub_epi64(_mm256_xor_si256(a, neg_a), neg_a);
      const __m256i mag_b =
          _mm256_sub_epi64(_mm256_xor_si256(b, neg_b), neg_b);
      const __m256i g = gather_i16(table, compact_qwords(mag_a, mag_b));
      const __m256i v = _mm256_and_si256(g, vmask);
      const __m256i corr = _mm256_and_si256(_mm256_srli_epi32(g, 15), cmask);
      const __m256i recon =
          _mm256_add_epi32(_mm256_sub_epi32(one_dw, v), corr);
      vals = _mm256_blendv_epi8(v, recon, compact_qwords(neg_a, neg_b));
    } else {
      // word = raw − min_raw fits one dword (width <= 16).
      vals = gather_i16(table, compact_qwords(_mm256_sub_epi64(a, min_v),
                                              _mm256_sub_epi64(b, min_v)));
    }
    const __m256i lo4 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(vals));
    const __m256i hi4 =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(vals, 1));
    char* q = out + i * kBytes;
    if constexpr (kFixed) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 0),
                          _mm256_unpacklo_epi64(lo4, fmt_v));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 32),
                          _mm256_unpackhi_epi64(lo4, fmt_v));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 64),
                          _mm256_unpacklo_epi64(hi4, fmt_v));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 96),
                          _mm256_unpackhi_epi64(hi4, fmt_v));
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q), lo4);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 32), hi4);
    }
  }
  return i;
}

}  // namespace

std::size_t table_lookup_fixed_avx2(const std::int16_t* table,
                                    std::int64_t fmt_bits,
                                    std::int64_t min_raw, const char* in,
                                    char* out, std::size_t n) {
  return table_lookup<true, false>(table, fmt_bits, min_raw, 0, 0, in, out,
                                   n);
}

std::size_t table_lookup_fixed_avx2_half(const std::int16_t* table,
                                         std::int64_t fmt_bits,
                                         std::int64_t one_raw, const char* in,
                                         char* out, std::size_t n) {
  return table_lookup<true, true>(table, fmt_bits, 0, 0, one_raw, in, out, n);
}

std::size_t table_lookup_raw_avx2(const std::int16_t* table,
                                  std::int64_t min_raw, std::int64_t max_raw,
                                  const std::int64_t* in, std::int64_t* out,
                                  std::size_t n) {
  return table_lookup<false, false>(table, 0, min_raw, max_raw, 0,
                                    reinterpret_cast<const char*>(in),
                                    reinterpret_cast<char*>(out), n);
}

std::size_t table_lookup_raw_avx2_half(const std::int16_t* table,
                                       std::int64_t one_raw,
                                       std::int64_t min_raw,
                                       std::int64_t max_raw,
                                       const std::int64_t* in,
                                       std::int64_t* out, std::size_t n) {
  return table_lookup<false, true>(table, 0, min_raw, max_raw, one_raw,
                                   reinterpret_cast<const char*>(in),
                                   reinterpret_cast<char*>(out), n);
}

void table_lookup_i32_avx2(const std::int16_t* table, const std::int32_t* in,
                           std::int32_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i words =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        gather_i16(table, words));
  }
  for (; i < n; ++i) {
    out[i] = table[in[i]];
  }
}

void qgemm_accumulate_avx2(const std::int16_t* packed, std::size_t tiles,
                           std::size_t in_dim, const std::int32_t* x,
                           std::int32_t* acc, int fb, std::int32_t acc_min,
                           std::int32_t acc_max) {
  const __m256i lo = _mm256_set1_epi32(acc_min);
  const __m256i hi = _mm256_set1_epi32(acc_max);
  const __m128i shift = _mm_cvtsi32_si128(fb);
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::int16_t* w = packed + tile * in_dim * 8;
    std::int32_t* a = acc + tile * 8;
    __m256i acc_v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    for (std::size_t i = 0; i < in_dim; ++i) {
      const __m256i w8 = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i * 8)));
      const __m256i xi = _mm256_set1_epi32(x[i]);
      // |w*x| <= 2^30 so the 32-bit product is exact, and |acc + term| <
      // 2^31 (formats_supported caps acc at 2^28) so the lane add cannot
      // wrap before the clamp — identical to the scalar int64 formulation.
      const __m256i prod = _mm256_mullo_epi32(w8, xi);
      const __m256i term = _mm256_sra_epi32(prod, shift);
      acc_v = add_clamp_epi32(acc_v, term, lo, hi);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a), acc_v);
  }
}

}  // namespace nacu::simd::detail

#endif  // NACU_HAVE_AVX2
