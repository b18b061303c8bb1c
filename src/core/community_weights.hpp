// The host's one accumulator of weights by community id (PLM's sparse
// accumulator, GVE-Louvain's per-thread table) and the reference
// contraction built on it. Seq and plm move and contract through them,
// and the tests hold core::aggregate against contract_reference.
// Header-only, so seq and plm use it without linking the core library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::core {

/// A zero-initialised sum per community id and the ids touched since
/// the last clear(), which resets in O(touched). Arc weights are
/// positive (the loaders reject others), so a zero sum marks an
/// untouched id. Cache-line aligned: per-worker copies sit side by side.
class alignas(64) CommunityWeights {
 public:
  /// Reserves 256 touched ids, so a worker's first rows do not grow
  /// the list; a copy drops that, so build per-worker ones in place.
  explicit CommunityWeights(std::size_t ids) : sum_(ids, 0) {
    touched_.reserve(256);
  }

  void add(graph::Community c, graph::Weight w) {
    if (sum_[c] == 0) touched_.push_back(c);
    sum_[c] += w;  // the first add stores w exactly: 0 + w == w
  }

  /// The sum for `c`: a left fold in add() order, 0 when untouched.
  graph::Weight operator[](graph::Community c) const { return sum_[c]; }

  /// Ids with a non-zero sum, in first-touch order.
  std::span<const graph::Community> touched() const { return touched_; }

  /// Zero the touched ids only.
  void clear() {
    for (const graph::Community c : touched_) sum_[c] = 0;
    touched_.clear();
  }

 private:
  std::vector<graph::Weight> sum_;
  std::vector<graph::Community> touched_;
};

/// Reference contraction of the graph in `rows` (core::PlainRows, or
/// core::ZRows with pool.size() workers) by labels below n: one vertex
/// per non-empty label, numbered in increasing label order (the newID
/// prefix sum of Algorithm 3; the map goes to *new_id_out, with
/// kInvalidVertex for empty labels). Members are summed in ascending id
/// and each row in adjacency order, so a super-edge weight is that left
/// fold at any pool size; rows come out sorted, and internal arcs fold
/// into the self-loop (2 * internal weight + member loops).
template <typename Rows>
graph::Csr contract_reference(Rows&& rows,
                              std::span<const graph::Community> community,
                              simt::ThreadPool& pool,
                              std::vector<graph::VertexId>* new_id_out = nullptr) {
  using graph::VertexId;
  const VertexId n = rows.num_vertices();

  // Counting sort: label c's members, ascending, at
  // members[first[c], first[c + 1]).
  std::vector<VertexId> first(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++first[community[v] + 1];
  for (VertexId c = 0; c < n; ++c) first[c + 1] += first[c];
  std::vector<VertexId> members(n);
  std::vector<VertexId> next(first.begin(), first.end() - 1);
  for (VertexId v = 0; v < n; ++v) members[next[community[v]]++] = v;
  std::vector<VertexId> label;  // label[k] becomes vertex k
  for (VertexId c = 0; c < n; ++c) {
    if (first[c + 1] > first[c]) label.push_back(c);
  }
  const auto nn = static_cast<VertexId>(label.size());
  std::vector<VertexId> new_id(n, graph::kInvalidVertex);
  for (VertexId k = 0; k < nn; ++k) new_id[label[k]] = k;

  // Each worker appends the sorted rows it merges to its own buffers:
  // row k holds offsets[k + 1] entries of owner[k]'s buffers from at[k].
  struct alignas(64) Merged {
    std::vector<VertexId> adj;
    std::vector<graph::Weight> w;
  };
  std::vector<Merged> merged(pool.size());
  std::vector<unsigned> owner(nn);
  std::vector<graph::EdgeIdx> at(nn);
  std::vector<graph::EdgeIdx> offsets(static_cast<std::size_t>(nn) + 1, 0);
  std::vector<CommunityWeights> acc;
  for (unsigned w = 0; w < pool.size(); ++w) acc.emplace_back(nn);
  pool.parallel_for(nn, [&](std::size_t k, unsigned worker) {
    CommunityWeights& sums = acc[worker];
    for (VertexId i = first[label[k]]; i < first[label[k] + 1]; ++i) {
      const auto r = rows.row(members[i], worker);
      for (std::uint32_t j = 0; j < r.deg; ++j) {
        sums.add(new_id[community[r.adj[j]]], r.w[j]);
      }
    }
    Merged& out = merged[worker];
    owner[k] = worker;
    at[k] = out.adj.size();
    offsets[k + 1] = sums.touched().size();
    out.adj.insert(out.adj.end(), sums.touched().begin(), sums.touched().end());
    std::sort(out.adj.begin() + at[k], out.adj.end());
    for (std::size_t j = at[k]; j < out.adj.size(); ++j) {
      out.w.push_back(sums[out.adj[j]]);
    }
    sums.clear();
  });
  for (VertexId k = 0; k < nn; ++k) offsets[k + 1] += offsets[k];
  std::vector<VertexId> adj(offsets[nn]);
  std::vector<graph::Weight> weights(offsets[nn]);
  pool.parallel_for(nn, [&](std::size_t k, unsigned) {
    const Merged& from = merged[owner[k]];
    const graph::EdgeIdx deg = offsets[k + 1] - offsets[k];
    std::copy_n(from.adj.begin() + at[k], deg, adj.begin() + offsets[k]);
    std::copy_n(from.w.begin() + at[k], deg, weights.begin() + offsets[k]);
  });
  if (new_id_out) *new_id_out = std::move(new_id);
  return graph::Csr(std::move(offsets), std::move(adj), std::move(weights));
}

}  // namespace glouvain::core
