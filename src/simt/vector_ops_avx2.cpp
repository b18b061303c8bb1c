// AVX2 lowering of the vector lane primitives. This translation unit
// is compiled with -mavx2 (see simt/CMakeLists.txt) and must be
// entered only behind simt::cpu_has_avx2() — the dispatchers in
// vector_ops.cpp guarantee that, so no function here re-checks.
//
// Numeric contract (see vector_ops.hpp): per-element gain arithmetic
// is the same IEEE multiply/multiply/subtract chain as the scalar
// kernel (no FMA is enabled, so nothing contracts), and the argmax
// folds with the compares of kernel_ops better(), a total order, so
// the lane layout cannot change the answer.

#include "simt/vector_ops.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include "simt/kernel_ops.hpp"
#endif

namespace glouvain::simt::vec::detail {

#if defined(__AVX2__)

namespace {

/// u32 -> double, exact over the full 32-bit range (the 2^52 mantissa
/// trick; plain _mm256_cvtepi32_pd would misread ids >= 2^31).
inline __m256d u32_to_pd(__m128i v) noexcept {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256i v64 = _mm256_cvtepu32_epi64(v);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v64, magic)),
                       _mm256_set1_pd(4503599627370496.0));
}

/// Running 4-lane argmax state, the vector form of kernel_ops better().
struct BestLanes {
  __m256d gain = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d key = _mm256_set1_pd(4294967295.0);

  /// Folds the lanes of (gain4, key4) that `cand` marks. A dead lane
  /// never takes, so its gain (whatever the masked gather left) cannot
  /// tie the identity and win on its key.
  void fold(__m256d gain4, __m256d key4, __m256d cand) noexcept {
    const __m256d gt = _mm256_cmp_pd(gain4, gain, _CMP_GT_OQ);
    const __m256d eq = _mm256_cmp_pd(gain4, gain, _CMP_EQ_OQ);
    const __m256d lt = _mm256_cmp_pd(key4, key, _CMP_LT_OQ);
    const __m256d take =
        _mm256_and_pd(cand, _mm256_or_pd(gt, _mm256_and_pd(eq, lt)));
    gain = _mm256_blendv_pd(gain, gain4, take);
    key = _mm256_blendv_pd(key, key4, take);
  }

  /// Fold the 4 lanes into one candidate.
  BestComm collapse() const noexcept {
    alignas(32) double g[4];
    alignas(32) double k[4];
    _mm256_store_pd(g, gain);
    _mm256_store_pd(k, key);
    BestComm best = kEmptyBest;
    for (int lane = 0; lane < 4; ++lane) {
      best = better(best, {g[lane], static_cast<std::uint32_t>(k[lane])});
    }
    return best;
  }
};

/// One 8-slot step of the fused scan. `ks` holds the 8 keys, `cand`
/// the candidate mask (live slot, key != skip). Evaluates
/// w - k*tot[key]*inv_m2 under the mask and folds into lo/hi.
inline void scan_step(__m256i ks, __m256i cand, const double* weights,
                      std::size_t at, const double* tot, __m256d vk,
                      __m256d vinv, BestLanes& lo, BestLanes& hi) noexcept {
  const __m128i keys_lo = _mm256_castsi256_si128(ks);
  const __m128i keys_hi = _mm256_extracti128_si256(ks, 1);
  const __m256i m_lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(cand));
  const __m256i m_hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(cand, 1));
  const __m256d mpd_lo = _mm256_castsi256_pd(m_lo);
  const __m256d mpd_hi = _mm256_castsi256_pd(m_hi);
  // Masked gathers: dead lanes neither fault nor load (the sentinel
  // key 0xffffffff would index far past tot[]).
  const __m256d t_lo = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), tot,
                                                keys_lo, mpd_lo, 8);
  const __m256d t_hi = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), tot,
                                                keys_hi, mpd_hi, 8);
  const __m256d w_lo = _mm256_loadu_pd(weights + at);
  const __m256d w_hi = _mm256_loadu_pd(weights + at + 4);
  const __m256d gain_lo = _mm256_sub_pd(
      w_lo, _mm256_mul_pd(_mm256_mul_pd(vk, t_lo), vinv));
  const __m256d gain_hi = _mm256_sub_pd(
      w_hi, _mm256_mul_pd(_mm256_mul_pd(vk, t_hi), vinv));
  lo.fold(gain_lo, u32_to_pd(keys_lo), mpd_lo);
  hi.fold(gain_hi, u32_to_pd(keys_hi), mpd_hi);
}

}  // namespace

void gather_u32_avx2(const std::uint32_t* idx, std::size_t n,
                     const std::uint32_t* table, std::uint32_t* out) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(table),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i)), 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < n; ++i) out[i] = table[idx[i]];
}

BestSlot scan_best_sentinel_avx2(const std::uint32_t* keys,
                                 const double* weights, std::size_t cap,
                                 std::uint32_t skip_key, const double* tot,
                                 double k, double inv_m2) noexcept {
  const __m256i vnull = _mm256_set1_epi32(-1);
  const __m256i vskip = _mm256_set1_epi32(static_cast<int>(skip_key));
  const __m256d vk = _mm256_set1_pd(k);
  const __m256d vinv = _mm256_set1_pd(inv_m2);
  BestLanes lo, hi;
  double d_skip = 0;
  std::size_t i = 0;
  for (; i + 8 <= cap; i += 8) {
    const __m256i ks =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i isnull = _mm256_cmpeq_epi32(ks, vnull);
    if (_mm256_movemask_epi8(isnull) == -1) continue;  // all 8 empty
    const __m256i isskip = _mm256_cmpeq_epi32(ks, vskip);
    const int skipm = _mm256_movemask_ps(_mm256_castsi256_ps(isskip));
    if (skipm != 0) {
      d_skip = weights[i + __builtin_ctz(static_cast<unsigned>(skipm))];
    }
    const __m256i cand = _mm256_andnot_si256(
        _mm256_or_si256(isnull, isskip), _mm256_set1_epi32(-1));
    scan_step(ks, cand, weights, i, tot, vk, vinv, lo, hi);
  }
  BestComm best = better(lo.collapse(), hi.collapse());
  for (; i < cap; ++i) {
    const std::uint32_t c = keys[i];
    if (c == 0xffffffffu) continue;
    if (c == skip_key) {
      d_skip = weights[i];
      continue;
    }
    best = better(best, {weights[i] - k * tot[c] * inv_m2, c});
  }
  return {best.gain, best.comm, d_skip};
}

double row_internal_weight_avx2(const std::uint32_t* adj, const double* w,
                                std::size_t deg,
                                const std::uint32_t* community,
                                std::uint32_t c) noexcept {
  const __m256i vc = _mm256_set1_epi32(static_cast<int>(c));
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= deg; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(adj + i));
    const __m256i comm =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(community), a, 4);
    const __m256i eq = _mm256_cmpeq_epi32(comm, vc);
    const __m256i m_lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(eq));
    const __m256i m_hi =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(eq, 1));
    acc_lo = _mm256_add_pd(
        acc_lo, _mm256_and_pd(_mm256_loadu_pd(w + i), _mm256_castsi256_pd(m_lo)));
    acc_hi = _mm256_add_pd(
        acc_hi,
        _mm256_and_pd(_mm256_loadu_pd(w + i + 4), _mm256_castsi256_pd(m_hi)));
  }
  alignas(32) double out[4];
  _mm256_store_pd(out, _mm256_add_pd(acc_lo, acc_hi));
  double s = (out[0] + out[1]) + (out[2] + out[3]);
  for (; i < deg; ++i) {
    if (community[adj[i]] == c) s += w[i];
  }
  return s;
}

#else  // !__AVX2__

// This TU was built without AVX2 (non-x86 toolchain): the dispatchers
// never call in because cpu_has_avx2() is false, but the symbols must
// exist to link.
void gather_u32_avx2(const std::uint32_t*, std::size_t, const std::uint32_t*,
                     std::uint32_t*) noexcept {
  __builtin_trap();
}
BestSlot scan_best_sentinel_avx2(const std::uint32_t*, const double*,
                                 std::size_t, std::uint32_t, const double*,
                                 double, double) noexcept {
  __builtin_trap();
}
double row_internal_weight_avx2(const std::uint32_t*, const double*,
                                std::size_t, const std::uint32_t*,
                                std::uint32_t) noexcept {
  __builtin_trap();
}

#endif  // __AVX2__

}  // namespace glouvain::simt::vec::detail
