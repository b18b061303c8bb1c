// Fundamental graph types shared by every module.
#pragma once

#include <cstdint>
#include <limits>

namespace glouvain::graph {

/// Vertex identifier. 32 bits covers every graph in the paper's suite
/// (largest: europe_osm, 50.9M vertices) with half the memory traffic
/// of 64-bit ids — the same choice CUDA implementations make.
using VertexId = std::uint32_t;

/// Index into the CSR adjacency/weight arrays (2|E| can exceed 2^32).
using EdgeIdx = std::uint64_t;

/// Edge weight / accumulated community weight. Double keeps modularity
/// arithmetic stable across tens of millions of accumulations.
using Weight = double;

/// Community label; communities are always a subset of vertex ids.
using Community = std::uint32_t;

inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();
inline constexpr Community kInvalidCommunity = std::numeric_limits<Community>::max();

/// Whether an id or count from outside input fits the vertex-id space.
/// The top 32-bit value is reserved as kInvalidVertex; ids at or above
/// it would wrap under static_cast, and so would the `id + 1` a loader
/// or delta uses to size the graph. Every reader of untrusted ids
/// (graph io, delta files, stream sessions) checks this one rule.
constexpr bool fits_vertex_id(unsigned long long id) noexcept {
  return id < kInvalidVertex;
}

/// Whether a weight from outside input is finite and > 0 (NaN fails
/// both comparisons). Every backend assumes positive weights: a zero
/// sum marks an untouched id in core::CommunityWeights. Every reader of
/// untrusted weights (graph io, delta files) and graph::validate check
/// this one rule.
constexpr bool valid_weight(Weight w) noexcept {
  return w > 0 && w <= std::numeric_limits<Weight>::max();
}

/// A weighted edge in coordinate form, the builder's input currency.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

}  // namespace glouvain::graph
