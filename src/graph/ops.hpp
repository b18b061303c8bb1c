// Whole-graph operations: validation, statistics, permutation and
// connected components.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace glouvain::graph {

/// Structural invariants: monotone offsets, in-range neighbors,
/// positive weights, symmetric adjacency (w(u,v) == w(v,u)), loops
/// stored once. Returns an empty string when valid, else a diagnostic.
std::string validate(const Csr& graph);

struct DegreeStats {
  EdgeIdx min_degree = 0;
  EdgeIdx max_degree = 0;
  double mean_degree = 0;
  /// Degree histogram over the paper's 7 modularity-optimization
  /// buckets: (0,4], (4,8], (8,16], (16,32], (32,84], (84,319], >319.
  std::vector<std::uint64_t> bucket_counts;
};

DegreeStats degree_stats(const Csr& graph);

/// Relabel: vertex v becomes perm[v]; perm must be a bijection.
Csr permute(const Csr& graph, const std::vector<VertexId>& perm);

/// Number of connected components (BFS; ignores weights).
std::uint64_t count_components(const Csr& graph);

}  // namespace glouvain::graph
