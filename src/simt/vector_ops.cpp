// Runtime dispatch + scalar-emulation twin for the vector row sum. A
// machine without AVX2 — or a run with GLOUVAIN_NO_AVX2 set — sums
// through the plain loop instead.

#include "simt/vector_ops.hpp"

#include "simt/backend.hpp"

namespace glouvain::simt::vec {

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
