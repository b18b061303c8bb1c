// AVX2 lowering of the vector row sum. This translation unit is
// compiled with -mavx2 (see simt/CMakeLists.txt) and must be entered
// only behind simt::cpu_has_avx2() — the dispatcher in vector_ops.cpp
// guarantees that, so nothing here re-checks.

#include "simt/vector_ops.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace glouvain::simt::vec::detail {

#if defined(__AVX2__)

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

// This TU was built without AVX2 (non-x86 toolchain): the dispatcher
// never calls in because cpu_has_avx2() is false, but the symbol must
// exist to link.
double row_internal_weight_avx2(const std::uint32_t*, const double*,
                                std::size_t, const std::uint32_t*,
                                std::uint32_t) noexcept {
  __builtin_trap();
}

#endif  // __AVX2__

}  // namespace glouvain::simt::vec::detail
