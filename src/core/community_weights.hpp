// The host's one accumulator of weights by community id (PLM's sparse
// accumulator, GVE-Louvain's per-thread table) and the reference
// contraction built on it. Seq and plm move and contract through them,
// and the tests hold core::aggregate against contract_reference.
// Header-only, so seq and plm use it without linking the core library.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::core {

/// A zero-initialised sum per community id and the ids touched since
/// the last clear, which resets in O(touched). Arc weights are
/// positive (the loaders reject others), so a zero sum marks an
/// untouched id. Cache-line aligned: per-worker copies sit side by side.
///
/// add() is the one accumulation entry point. It is branch-light: each
/// arc writes its id to the touched list's next free slot and keeps it
/// only on a first touch, so that slot must exist. Size the list to at
/// least the arcs added between two clears, or to one more than the
/// distinct ids they touch. Nothing grows outside grow(), so a kernel
/// may add, drain and clear.
class alignas(64) CommunityWeights {
 public:
  /// Sums for ids below `ids` and a touched list of `touched_capacity`.
  explicit CommunityWeights(std::size_t ids = 0,
                            std::size_t touched_capacity = 0) {
    grow(ids, touched_capacity);
  }

  /// Grow-only: new ids read 0, and touched ids and sums are kept.
  void grow(std::size_t ids, std::size_t touched_capacity) {
    if (ids > sum_.size()) sum_.resize(ids, 0);
    if (touched_capacity > touched_.size()) touched_.resize(touched_capacity);
  }

  /// Adds each arc of row `r` (duck-typed adj, w, deg) to the sum of
  /// label(head), in arc order, skipping arcs whose head is `skip`
  /// (graph::kInvalidVertex skips none). The pointers live in locals,
  /// so a label that loads atomically does not reload them per arc.
  template <typename Row, typename Label>
  void add(const Row& r, graph::VertexId skip, Label&& label) {
    graph::Weight* const sum = sum_.data();
    graph::Community* const touched = touched_.data();
    std::size_t n = num_touched_;
    for (std::uint32_t i = 0; i < r.deg; ++i) {
      if (r.adj[i] == skip) continue;
      const graph::Community c = label(r.adj[i]);
      touched[n] = c;
      // Sums are never -0.0, so an all-zero bit pattern is a zero sum;
      // one integer compare against memory beats a ucomisd here.
      n += std::bit_cast<std::uint64_t>(sum[c]) == 0;
      sum[c] += r.w[i];  // the first add stores w exactly: 0 + w == w
    }
    num_touched_ = n;
  }

  /// The sum for `c`: a left fold in add() order, 0 when untouched.
  graph::Weight operator[](graph::Community c) const { return sum_[c]; }

  /// Ids with a non-zero sum, in first-touch order.
  std::span<const graph::Community> touched() const {
    return {touched_.data(), num_touched_};
  }

  /// fn(id, sum) for each touched id in first-touch order, zeroing it:
  /// a fold and clear() in one pass.
  template <typename Fn>
  void drain(Fn&& fn) {
    graph::Weight* const sum = sum_.data();
    for (const graph::Community c : touched()) {
      fn(c, sum[c]);
      sum[c] = 0;
    }
    num_touched_ = 0;
  }

  /// Zero the touched ids only.
  void clear() {
    for (const graph::Community c : touched()) sum_[c] = 0;
    num_touched_ = 0;
  }

  std::size_t held_bytes() const noexcept {
    return sum_.capacity() * sizeof(graph::Weight) +
           touched_.capacity() * sizeof(graph::Community);
  }

 private:
  std::vector<graph::Weight> sum_;
  std::vector<graph::Community> touched_;
  std::size_t num_touched_ = 0;
};

/// The largest degree in `rows` (a Csr or a row source): the touched
/// capacity of an accumulator that is cleared after every row.
template <typename Rows>
std::size_t max_row_degree(const Rows& rows) {
  std::size_t max = 0;
  for (graph::VertexId v = 0; v < rows.num_vertices(); ++v) {
    max = std::max<std::size_t>(max, rows.degree(v));
  }
  return max;
}

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
  // A community's rows touch at most nn ids: nn + 1 slots hold them.
  std::vector<CommunityWeights> acc;
  for (unsigned w = 0; w < pool.size(); ++w) acc.emplace_back(nn, nn + 1);
  pool.parallel_for(nn, [&](std::size_t k, unsigned worker) {
    CommunityWeights& sums = acc[worker];
    for (VertexId i = first[label[k]]; i < first[label[k] + 1]; ++i) {
      sums.add(rows.row(members[i], worker), graph::kInvalidVertex,
               [&](VertexId u) { return new_id[community[u]]; });
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
