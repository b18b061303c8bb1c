// Runtime dispatch + scalar-emulation twins for the vector primitives.
// The emulation paths return what the AVX2 paths return (same gain
// arithmetic, same better() maximum, same masking), so a machine
// without AVX2 — or a run with GLOUVAIN_NO_AVX2 set — produces valid
// results through the exact same call graph, just without the vector
// ALUs.

#include "simt/vector_ops.hpp"

#include "simt/backend.hpp"
#include "simt/kernel_ops.hpp"

namespace glouvain::simt::vec {

void gather_u32(const std::uint32_t* idx, std::size_t n,
                const std::uint32_t* table, std::uint32_t* out) noexcept {
  if (cpu_has_avx2()) {
    detail::gather_u32_avx2(idx, n, table, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = table[idx[i]];
}

BestSlot scan_best_sentinel(const std::uint32_t* keys, const double* weights,
                            std::size_t cap, std::uint32_t skip_key,
                            const double* tot, double k,
                            double inv_m2) noexcept {
  if (cpu_has_avx2()) {
    return detail::scan_best_sentinel_avx2(keys, weights, cap, skip_key, tot,
                                           k, inv_m2);
  }
  constexpr std::uint32_t kNull = 0xffffffffu;
  BestComm best = kEmptyBest;
  double d_skip = 0;
  for (std::size_t pos = 0; pos < cap; ++pos) {
    const std::uint32_t c = keys[pos];
    if (c == kNull) continue;
    if (c == skip_key) {
      d_skip = weights[pos];
      continue;
    }
    const double gain = weights[pos] - k * tot[c] * inv_m2;
    best = better(best, {gain, c});
  }
  return {best.gain, best.comm, d_skip};
}

double row_internal_weight(const std::uint32_t* adj, const double* w,
                           std::size_t deg, const std::uint32_t* community,
                           std::uint32_t c) noexcept {
  if (cpu_has_avx2()) {
    return detail::row_internal_weight_avx2(adj, w, deg, community, c);
  }
  double internal = 0;
  for (std::size_t i = 0; i < deg; ++i) {
    if (community[adj[i]] == c) internal += w[i];
  }
  return internal;
}

}  // namespace glouvain::simt::vec
