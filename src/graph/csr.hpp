// Compressed-sparse-row representation of an undirected weighted graph.
//
// Storage conventions (kept identical to the original Louvain code of
// Blondel et al., so modularity values are directly comparable, and to
// the paper's device layout of `vertices` / `edges` / `weights`):
//   * every non-loop edge {u, v} appears in BOTH rows u and v;
//   * a self-loop {v, v} appears ONCE in row v;
//   * strength(v) = sum of row v's weights (self-loop counted once);
//   * total_weight() = sum of all strengths
//                    = 2 * (sum of non-loop edge weights) + (loop weights),
//     the "2m" denominator of the modularity formula.
// These conventions are invariant under community aggregation, which is
// what makes multi-level modularity comparable across levels.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "prim/scratch.hpp"

namespace glouvain::graph {

class Csr {
 public:
  Csr() : offsets_(1, 0) {}

  /// Adopt prebuilt arrays. offsets.size() == n+1; adj/weights have
  /// offsets.back() entries. Invariants are asserted, not repaired —
  /// use Builder for untrusted input.
  Csr(std::vector<EdgeIdx> offsets, std::vector<VertexId> adj,
      std::vector<Weight> weights);

  /// Same, but the totals pass draws its chunk partials from
  /// `scratch` instead of the heap (the allocation-free hot path).
  Csr(std::vector<EdgeIdx> offsets, std::vector<VertexId> adj,
      std::vector<Weight> weights, prim::Scratch& scratch);

  VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Directed arc count = 2 * (non-loop edges) + loops.
  EdgeIdx num_arcs() const noexcept { return offsets_.back(); }

  /// Undirected edge count (loops counted once).
  EdgeIdx num_edges() const noexcept { return (num_arcs() + num_loops_) / 2; }

  EdgeIdx num_loops() const noexcept { return num_loops_; }

  EdgeIdx degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  EdgeIdx offset(VertexId v) const noexcept { return offsets_[v]; }

  std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {adj_.data() + offsets_[v], degree(v)};
  }

  std::span<const Weight> weights(VertexId v) const noexcept {
    return {weights_.data() + offsets_[v], degree(v)};
  }

  /// Weighted degree k_v (self-loop weight counted once; see header).
  Weight strength(VertexId v) const noexcept {
    Weight s = 0;
    for (const Weight w : weights(v)) s += w;
    return s;
  }

  /// Self-loop weight of v (0 if none).
  Weight loop_weight(VertexId v) const noexcept;

  /// The modularity denominator "2m": cached at construction.
  Weight total_weight() const noexcept { return total_weight_; }

  // Raw array views for kernels (device-global-memory analogues).
  std::span<const EdgeIdx> offsets() const noexcept { return offsets_; }
  std::span<const VertexId> adjacency() const noexcept { return adj_; }
  std::span<const Weight> edge_weights() const noexcept { return weights_; }

  /// strengths[v] = k_v for all v, computed in parallel.
  std::vector<Weight> compute_strengths() const;

  /// Structural equality (same arrays).
  friend bool operator==(const Csr&, const Csr&) = default;

  /// Surrender the backing arrays (for capacity recycling). Rvalue
  /// only: the hollowed-out Csr drops the offsets invariant (restoring
  /// it would mean allocating inside the recycle path), so afterwards
  /// it may only be destroyed or assigned to.
  struct Released {
    std::vector<EdgeIdx> offsets;
    std::vector<VertexId> adj;
    std::vector<Weight> weights;
  };
  Released release() && {
    Released r{std::move(offsets_), std::move(adj_), std::move(weights_)};
    offsets_.clear();
    adj_.clear();
    weights_.clear();
    total_weight_ = 0;
    num_loops_ = 0;
    return r;
  }

 private:
  /// 2m and the loop count; chunk partials from `scratch`, or from
  /// the heap when it is null.
  void compute_totals(prim::Scratch* scratch);

  std::vector<EdgeIdx> offsets_;
  std::vector<VertexId> adj_;
  std::vector<Weight> weights_;
  Weight total_weight_ = 0;
  EdgeIdx num_loops_ = 0;
};

}  // namespace glouvain::graph
