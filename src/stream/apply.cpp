#include "stream/apply.hpp"

#include <algorithm>

#include "prim/reduce.hpp"
#include "prim/scan.hpp"
#include "prim/sort.hpp"

namespace glouvain::stream {

namespace {

using graph::Csr;
using graph::Edge;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;

/// One directed half of a delta entry, owned by the row it lands in.
/// Deletions sort before insertions of the same (owner, nbr) so a
/// "delete then re-insert" batch replaces the edge's weight.
struct DeltaArc {
  VertexId owner = 0;
  VertexId nbr = 0;
  Weight w = 0;
  bool del = false;
};

/// Applied-entry counts of pass A, summed over one chunk of rows.
struct Applied {
  std::size_t inserted = 0;
  std::size_t deleted = 0;

  Applied& operator+=(const Applied& o) noexcept {
    inserted += o.inserted;
    deleted += o.deleted;
    return *this;
  }
};

bool arc_less(const DeltaArc& a, const DeltaArc& b) noexcept {
  if (a.owner != b.owner) return a.owner < b.owner;
  if (a.nbr != b.nbr) return a.nbr < b.nbr;
  return a.del && !b.del;
}

/// Merge one old row with its sorted delta arcs. Emit(nbr, weight) is
/// called in increasing nbr order; Stat(nbr, was_present, has_del,
/// ins_w) is called once per distinct delta nbr for the applied-count
/// bookkeeping. Either may be a no-op lambda.
template <typename EmitFn, typename StatFn>
void merge_row(std::span<const VertexId> old_nbrs, std::span<const Weight> old_ws,
               std::span<const DeltaArc> arcs, EmitFn&& emit, StatFn&& stat) {
  std::size_t i = 0;  // old row cursor
  std::size_t j = 0;  // delta cursor
  while (i < old_nbrs.size() || j < arcs.size()) {
    if (j == arcs.size() ||
        (i < old_nbrs.size() && old_nbrs[i] < arcs[j].nbr)) {
      emit(old_nbrs[i], old_ws[i]);
      ++i;
      continue;
    }
    // A delta group for one neighbour: deletions first, then inserts.
    const VertexId nbr = arcs[j].nbr;
    bool has_del = false;
    Weight ins_w = 0;
    for (; j < arcs.size() && arcs[j].nbr == nbr; ++j) {
      if (arcs[j].del) {
        has_del = true;
      } else {
        ins_w += arcs[j].w;
      }
    }
    const bool was_present = i < old_nbrs.size() && old_nbrs[i] == nbr;
    Weight base = 0;
    if (was_present) {
      if (!has_del) base = old_ws[i];
      ++i;
    }
    stat(nbr, was_present, has_del, ins_w);
    if ((was_present && !has_del) || ins_w > 0) emit(nbr, base + ins_w);
  }
}

}  // namespace

ApplyResult apply_delta(const Csr& graph, const Delta& delta,
                        simt::ThreadPool& pool) {
  core::Workspace ws;
  return apply_delta(graph, delta, ws, pool);
}

ApplyResult apply_delta(const Csr& graph, const Delta& delta,
                        core::Workspace& ws, simt::ThreadPool& pool) {
  using Slot = core::Workspace::Slot;
  const VertexId old_n = graph.num_vertices();

  // Insertions may name vertices beyond the current count: grow.
  VertexId new_n = old_n;
  for (const Edge& e : delta.insertions) {
    if (e.w <= 0) continue;
    new_n = std::max({new_n, static_cast<VertexId>(e.u + 1),
                      static_cast<VertexId>(e.v + 1)});
  }

  // Expand each entry into its directed halves (loops once, matching
  // the Csr storage convention). Deletions touching a vertex that does
  // not exist yet cannot match an edge and are dropped here. The arc
  // buffer is a workspace slot, so count first, then fill.
  std::size_t num_arcs = 0;
  for (const Edge& e : delta.deletions) {
    if (e.u >= old_n || e.v >= old_n) continue;
    num_arcs += e.u != e.v ? 2 : 1;
  }
  for (const Edge& e : delta.insertions) {
    if (e.w <= 0) continue;
    num_arcs += e.u != e.v ? 2 : 1;
  }
  auto arcs = ws.buffer<DeltaArc>(Slot::kStreamArcs, num_arcs);
  std::size_t fill = 0;
  for (const Edge& e : delta.deletions) {
    if (e.u >= old_n || e.v >= old_n) continue;
    arcs[fill++] = {e.u, e.v, 0, true};
    if (e.u != e.v) arcs[fill++] = {e.v, e.u, 0, true};
  }
  for (const Edge& e : delta.insertions) {
    if (e.w <= 0) continue;
    arcs[fill++] = {e.u, e.v, e.w, false};
    if (e.u != e.v) arcs[fill++] = {e.v, e.u, e.w, false};
  }
  prim::sort(arcs, arc_less, ws.scratch(), pool);

  // Touched owners (sorted unique) and each owner's arc range. The
  // touched list leaves with the result, so it draws from the pool.
  ApplyResult result;
  std::size_t num_groups = 0;
  for (std::size_t a = 0; a < num_arcs;) {
    std::size_t b = a;
    while (b < num_arcs && arcs[b].owner == arcs[a].owner) ++b;
    ++num_groups;
    a = b;
  }
  result.touched = ws.take<VertexId>(num_groups);
  auto ranges = ws.buffer<std::pair<std::size_t, std::size_t>>(
      Slot::kStreamRanges, num_groups);
  for (std::size_t a = 0, g = 0; a < num_arcs; ++g) {
    std::size_t b = a;
    while (b < num_arcs && arcs[b].owner == arcs[a].owner) ++b;
    result.touched[g] = arcs[a].owner;
    ranges[g] = {a, b};
    a = b;
  }

  // Pass A: merged degree of every touched row, plus the applied-entry
  // counts (taken on the owner <= nbr half so undirected edges count
  // once). Vertices the delta created but never named keep degree 0.
  auto new_degree = ws.buffer<EdgeIdx>(Slot::kStreamNewDegree, new_n);
  pool.parallel_for(new_n, [&](std::size_t v, unsigned) {
    new_degree[v] =
        v < old_n ? graph.degree(static_cast<VertexId>(v)) : EdgeIdx{0};
  });
  const Applied applied = prim::reduce(
      result.touched.size(),
      [&](std::size_t begin, std::size_t end, unsigned) {
        Applied part;
        for (std::size_t t = begin; t < end; ++t) {
          const VertexId v = result.touched[t];
          const auto [a, b] = ranges[t];
          const bool existing = v < old_n;
          EdgeIdx count = 0;
          merge_row(existing ? graph.neighbors(v) : std::span<const VertexId>{},
                    existing ? graph.weights(v) : std::span<const Weight>{},
                    std::span<const DeltaArc>(arcs.data() + a, b - a),
                    [&](VertexId, Weight) { ++count; },
                    [&](VertexId nbr, bool was_present, bool has_del,
                        Weight ins_w) {
                      if (v > nbr) return;  // count undirected edges once
                      if (has_del && was_present) ++part.deleted;
                      if (ins_w > 0) ++part.inserted;
                    });
          new_degree[v] = count;
        }
        return part;
      },
      ws.scratch(), pool);
  result.inserted = applied.inserted;
  result.deleted = applied.deleted;

  // New offsets (Thrust-style scan), then the row copy/merge pass. The
  // three CSR arrays leave with the result: recycling pool.
  std::vector<EdgeIdx> offsets =
      ws.take<EdgeIdx>(static_cast<std::size_t>(new_n) + 1);
  offsets[new_n] = prim::exclusive_scan(
      std::span<const EdgeIdx>(new_degree.data(), new_n),
      std::span<EdgeIdx>(offsets.data(), new_n), ws.scratch(), pool);

  auto touch_slot = ws.buffer<std::uint32_t>(Slot::kStreamTouchSlot, new_n);
  pool.parallel_for(new_n, [&](std::size_t v, unsigned) {
    touch_slot[v] = ~0u;
  });
  for (std::size_t t = 0; t < result.touched.size(); ++t) {
    touch_slot[result.touched[t]] = static_cast<std::uint32_t>(t);
  }

  std::vector<VertexId> adj =
      ws.take<VertexId>(static_cast<std::size_t>(offsets[new_n]));
  std::vector<Weight> weights =
      ws.take<Weight>(static_cast<std::size_t>(offsets[new_n]));
  pool.parallel_for(new_n, [&](std::size_t vi, unsigned) {
    const auto v = static_cast<VertexId>(vi);
    EdgeIdx out = offsets[vi];
    const std::uint32_t slot = touch_slot[vi];
    if (slot == ~0u) {
      if (v >= old_n) return;  // new isolated vertex (none in practice)
      const auto nbrs = graph.neighbors(v);
      const auto ws = graph.weights(v);
      std::copy(nbrs.begin(), nbrs.end(), adj.begin() + static_cast<std::ptrdiff_t>(out));
      std::copy(ws.begin(), ws.end(), weights.begin() + static_cast<std::ptrdiff_t>(out));
      return;
    }
    const auto [a, b] = ranges[slot];
    const bool existing = v < old_n;
    merge_row(existing ? graph.neighbors(v) : std::span<const VertexId>{},
              existing ? graph.weights(v) : std::span<const Weight>{},
              std::span<const DeltaArc>(arcs.data() + a, b - a),
              [&](VertexId nbr, Weight w) {
                adj[out] = nbr;
                weights[out] = w;
                ++out;
              },
              [](VertexId, bool, bool, Weight) {});
  });

  result.graph =
      Csr(std::move(offsets), std::move(adj), std::move(weights), ws.scratch());
  return result;
}

}  // namespace glouvain::stream
