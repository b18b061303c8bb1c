#include "graph/fingerprint.hpp"

#include <bit>

namespace glouvain::graph {

Fingerprint128 fingerprint128(const Csr& graph) {
  std::uint64_t a = 0x8f14e45fceea167aULL;
  std::uint64_t b = 0x243f6a8885a308d3ULL;

  // Array lengths first so prefixes of longer arrays cannot alias.
  a = mix(a, graph.num_vertices());
  b = mix(b, graph.num_arcs());

  for (const EdgeIdx off : graph.offsets()) {
    a = mix(a, off);
    b = mix(b, off + 0x5bf0a8b1ULL);
  }
  for (const VertexId v : graph.adjacency()) {
    a = mix(a, v);
    b = mix(b, ~static_cast<std::uint64_t>(v));
  }
  for (const Weight w : graph.edge_weights()) {
    const auto bits = std::bit_cast<std::uint64_t>(w);
    a = mix(a, bits);
    b = mix(b, bits ^ 0xa5a5a5a5a5a5a5a5ULL);
  }
  return {a, b};
}

}  // namespace glouvain::graph
