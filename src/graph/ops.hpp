// Whole-graph operations: validation, statistics, permutation, and the
// *reference* (host-side) community contraction that the GPU-style
// aggregation kernel is tested against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
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

/// Sequential reference contraction: community[v] in [0, k) for every
/// vertex; returns the aggregated graph with one vertex per non-empty
/// community (renumbered consecutively in increasing community order)
/// plus the community -> new-vertex map in *new_id (optional).
/// Intra-community edges fold into a self-loop carrying
/// 2 * (internal undirected weight) + (original loop weights), matching
/// the Csr weight conventions so modularity is preserved exactly.
Csr contract_reference(const Csr& graph, const std::vector<Community>& community,
                       std::vector<VertexId>* new_id = nullptr);

/// contract_reference over any row storage of an n-vertex graph:
/// `row_at(v)` returns vertex v's row as a view with `adj`, `w` and
/// `deg` members (e.g. a core::RowView from core::PlainRows or
/// core::ZRows). Rows are read in increasing vertex order, so storages
/// whose rows are element-for-element equal give bitwise-equal results.
template <typename RowAt>
Csr contract_reference(VertexId n, RowAt&& row_at,
                       const std::vector<Community>& community,
                       std::vector<VertexId>* new_id_out = nullptr) {
  // Renumber non-empty communities consecutively, in increasing
  // community-id order (matches the newID prefix sum of Algorithm 3).
  std::vector<std::uint8_t> non_empty(n, 0);
  for (VertexId v = 0; v < n; ++v) non_empty[community[v]] = 1;
  std::vector<VertexId> new_id(n, kInvalidVertex);
  VertexId next = 0;
  for (VertexId c = 0; c < n; ++c) {
    if (non_empty[c]) new_id[c] = next++;
  }
  const VertexId nn = next;
  if (new_id_out) *new_id_out = new_id;

  // Hash neighbours of each community's members (the sequential analogue
  // of mergeCommunity).
  std::vector<std::vector<std::pair<VertexId, Weight>>> rows(nn);
  for (VertexId v = 0; v < n; ++v) {
    auto& row = rows[new_id[community[v]]];
    const auto r = row_at(v);
    for (std::size_t i = 0; i < r.deg; ++i) {
      row.emplace_back(new_id[community[r.adj[i]]], r.w[i]);
    }
  }

  std::vector<EdgeIdx> offsets(nn + 1, 0);
  std::vector<VertexId> adj;
  std::vector<Weight> weights;
  for (VertexId c = 0; c < nn; ++c) {
    auto& row = rows[c];
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    EdgeIdx count = 0;
    for (std::size_t i = 0; i < row.size();) {
      const VertexId nb = row[i].first;
      Weight w = 0;
      while (i < row.size() && row[i].first == nb) {
        w += row[i].second;
        ++i;
      }
      adj.push_back(nb);
      weights.push_back(w);
      ++count;
    }
    offsets[c + 1] = offsets[c] + count;
    row.clear();
    row.shrink_to_fit();
  }
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

/// Number of connected components (BFS; ignores weights).
std::uint64_t count_components(const Csr& graph);

}  // namespace glouvain::graph
