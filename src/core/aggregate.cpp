#include "core/aggregate.hpp"

#include <algorithm>
#include <string>
#include <string_view>

#include "check/check.hpp"
#include "core/buckets.hpp"
#include "core/community_weights.hpp"
#include "core/rows.hpp"
#include "core/workspace.hpp"
#include "obs/recorder.hpp"
#include "prim/reduce.hpp"
#include "prim/scan.hpp"
#include "simt/atomics.hpp"

namespace glouvain::core {

namespace {

using graph::Community;
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;

/// A merged row goes out in id order by scanning every id of the level
/// when the level has at most this many ids per id the row touched, and
/// by sorting the touched ids otherwise (DESIGN §5.9).
constexpr VertexId kScanIdsPerTouched = 16;

/// mergeCommunity for one community (Algorithm 3 lines 20-23) in the
/// worker's accumulator, one slot per new community id (DESIGN §5.9).
/// Members come in `com` order and each row in adjacency order,
/// self-loops included, and the first add to an id stores its weight
/// exactly (0 + w == w): every super-edge weight is the left fold the
/// paper's per-community table computes. The merged row goes out in
/// ascending id order, the Csr invariant, and the touched ids are
/// cleared.
template <typename Rows>
void merge_community(Rows& rows, unsigned worker,
                     std::span<const Community> community,
                     std::span<const VertexId> members,
                     std::span<const VertexId> new_id,
                     VertexId num_communities, CommunityWeights& acc,
                     std::span<VertexId> out_adj, std::span<Weight> out_w,
                     EdgeIdx& out_degree) {
  // A missed clear would add the previous community's sums to this one's.
  check::contract(acc.touched().empty(),
                  "aggregate: accumulator not empty on entry");
  for (const VertexId v : members) {
    acc.add(rows.row(v, worker), graph::kInvalidVertex,
            [&](VertexId u) { return new_id[community[u]]; });
  }
  const std::span<const Community> touched = acc.touched();
  const EdgeIdx degree = touched.size();
  for (EdgeIdx i = 0; i < degree; ++i) {
    check::note_plain_write(&out_adj[i]);
    check::note_plain_write(&out_w[i]);
  }
  if (num_communities <= kScanIdsPerTouched * degree) {
    // Few ids for the row: scan them all; an untouched id reads 0.
    EdgeIdx i = 0;
    for (VertexId id = 0; id < num_communities; ++id) {
      if (acc[id] == 0) continue;
      out_adj[i] = id;
      out_w[i++] = acc[id];
    }
  } else {
    std::copy(touched.begin(), touched.end(), out_adj.begin());
    std::sort(out_adj.begin(), out_adj.begin() + degree);
    for (EdgeIdx i = 0; i < degree; ++i) out_w[i] = acc[out_adj[i]];
  }
  acc.clear();
  check::note_plain_write(&out_degree);
  out_degree = degree;
}

template <typename Rows>
AggregationResult aggregate_impl(simt::Device& device, Rows& rows,
                                 std::span<const Community> community,
                                 Workspace& ws, obs::Recorder* rec) {
  check::WorkspaceGuard ws_guard(&ws);
  const VertexId n = rows.num_vertices();
  auto& pool = device.pool();
  obs::Span phase_span(rec, "aggregate");
  const Workspace::Counters ws_since = ws.counters();
  using Slot = Workspace::Slot;

  // --- Task (i): size and degree bound of every community
  // (Algorithm 3 lines 2-6, atomic histograms).
  const std::size_t sizes_span = rec ? rec->begin_span("aggregate/sizes") : 0;
  auto com_size = ws.buffer<VertexId>(Slot::kAggComSize, n);
  auto com_degree = ws.buffer<EdgeIdx>(Slot::kAggComDegree, n);
  device.for_each(n, [&](std::size_t c) {
    com_size[c] = 0;
    com_degree[c] = 0;
  });
  device.for_each(n, [&](std::size_t v) {
    const Community c = community[v];
    simt::atomic_add(com_size[c], VertexId{1});
    simt::atomic_add(com_degree[c],
                     EdgeIdx{rows.degree(static_cast<VertexId>(v))});
  });
  if (rec) rec->end_span(sizes_span);

  // --- Task (ii): consecutive numbering of non-empty communities
  // (lines 7-12: flag + prefix sum). new_id leaves with the result, so
  // it draws from the vector pool rather than a slot buffer.
  const std::size_t number_span =
      rec ? rec->begin_span("aggregate/numbering") : 0;
  auto flags = ws.buffer<VertexId>(Slot::kAggFlags, n);
  device.for_each(n, [&](std::size_t c) { flags[c] = com_size[c] ? 1 : 0; });
  std::vector<VertexId> new_id = ws.take<VertexId>(n);
  const VertexId num_communities = prim::exclusive_scan(
      std::span<const VertexId>(flags.data(), n), std::span<VertexId>(new_id),
      ws.scratch(), pool);
  // old_id inverts new_id, so the compaction below launches one task per
  // surviving community: a warm level's dense low labels would otherwise
  // put every live row into the first scheduling chunk of n tasks.
  auto old_id = ws.buffer<VertexId>(Slot::kAggOldId, num_communities);
  device.for_each(n, [&](std::size_t c) {
    if (com_size[c]) {
      old_id[new_id[c]] = static_cast<VertexId>(c);
    } else {
      new_id[c] = graph::kInvalidVertex;
    }
  });

  // --- Task (iii): scratch edge storage bounded by the degree sums
  // (lines 13-14). edge_pos[c] is where community c's merged edges go.
  auto edge_pos = ws.buffer<EdgeIdx>(Slot::kAggEdgePos, n);
  const EdgeIdx scratch_arcs = prim::exclusive_scan(
      std::span<const EdgeIdx>(com_degree.data(), n), edge_pos, ws.scratch(),
      pool);
  if (rec) rec->end_span(number_span);

  // --- Task (iv) setup: order vertices by community (lines 15-19).
  const std::size_t order_span = rec ? rec->begin_span("aggregate/order") : 0;
  auto com_size_wide = ws.buffer<EdgeIdx>(Slot::kAggComSizeWide, n);
  device.for_each(n, [&](std::size_t c) { com_size_wide[c] = com_size[c]; });
  auto vertex_start = ws.buffer<EdgeIdx>(Slot::kAggVertexStart, n + 1);
  vertex_start[n] = prim::exclusive_scan(
      std::span<const EdgeIdx>(com_size_wide.data(), n),
      std::span<EdgeIdx>(vertex_start.data(), n), ws.scratch(), pool);
  auto cursor = ws.buffer<EdgeIdx>(Slot::kAggCursor, n);
  device.for_each(n, [&](std::size_t c) { cursor[c] = vertex_start[c]; });
  auto com = ws.buffer<VertexId>(Slot::kAggCom, n);
  device.for_each(n, [&](std::size_t v) {
    const EdgeIdx slot = simt::atomic_add(cursor[community[v]], EdgeIdx{1});
    com[slot] = static_cast<VertexId>(v);
  });
  if (rec) rec->end_span(order_span);

  // --- mergeCommunity over work buckets (lines 20-23). Communities are
  // binned by their degree-sum bound, which schedules the merges; each
  // task merges the closed neighbourhood of one community in its
  // worker's accumulator and emits the sorted row into its scratch
  // region.
  auto tmp_adj = ws.buffer<VertexId>(Slot::kAggTmpAdj, scratch_arcs);
  auto tmp_w = ws.buffer<Weight>(Slot::kAggTmpW, scratch_arcs);
  auto merged_degree = ws.buffer<EdgeIdx>(Slot::kAggMergedDegree, n);
  // A community with members but zero degree never reaches a merge
  // kernel, so its width must already read 0 at compaction.
  device.for_each(n, [&](std::size_t c) { merged_degree[c] = 0; });

  // A row touches at most num_communities ids and at most its degree
  // sum, so the smaller of the largest degree sum and one more than the
  // id count sizes every worker's touched list.
  const EdgeIdx max_degree_sum =
      prim::reduce(
          n,
          [&](std::size_t begin, std::size_t end, unsigned) {
            prim::Max<EdgeIdx> part;
            for (std::size_t c = begin; c < end; ++c) {
              part.value = std::max(part.value, com_degree[c]);
            }
            return part;
          },
          ws.scratch(), pool)
          .value;
  const std::span<CommunityWeights> acc = ws.accumulators(
      device.workers(), num_communities,
      std::min<EdgeIdx>(max_degree_sum, EdgeIdx{num_communities} + 1));

  static const BucketScheme scheme = BucketScheme::paper_aggregation();
  Binned& binned = ws.aggregate_binned();
  {
    obs::Span span(rec, "aggregate/binning");
    bin_by_key_into(
        n, scheme, [&](VertexId c) { return com_degree[c]; }, 1,
        [](VertexId) { return 0u; }, binned, ws.scratch(), pool);
  }
  std::vector<std::string> bucket_names;
  if (rec) {
    bucket_names.resize(scheme.num_buckets());
    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      rec->count("aggregate/bucket_occupancy",
                 static_cast<double>(binned.bucket(b).size()),
                 static_cast<std::int64_t>(b));
      bucket_names[b] = "aggregate/bucket" + std::to_string(b);
    }
  }

  for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
    auto bucket = binned.bucket(b);
    if (bucket.empty()) continue;
    // The heaviest bucket, sorted by descending degree sum, goes out one
    // community per grab so the largest merges start first.
    const std::size_t grain = b >= scheme.global_from ? 1 : 0;

    obs::Span kernel_span(
        rec, rec ? std::string_view(bucket_names[b]) : std::string_view());
    check::KernelScope kernel_scope("aggregate/bucket", b);
    device.launch(bucket.size(), grain, [&](simt::TaskContext& ctx) {
      const Community c = bucket[ctx.task()];
      if (com_size[c] == 0 || com_degree[c] == 0) return;
      // Binning contract: each community sits in the bucket of its
      // degree-sum class, which the schedule above relies on.
      if (b < scheme.bounds.size()) {
        check::contract(com_degree[c] <= scheme.bounds[b],
                        "aggregate: community degree exceeds its bucket bound");
      }
      merge_community(rows, ctx.worker(), community,
                      com.subspan(vertex_start[c], com_size[c]), new_id,
                      num_communities, acc[ctx.worker()],
                      tmp_adj.subspan(edge_pos[c], com_degree[c]),
                      tmp_w.subspan(edge_pos[c], com_degree[c]),
                      merged_degree[c]);
    });
  }

  // --- Compaction (the prefix-sum + move pass after line 23): gather
  // per-new-vertex degrees, scan, and copy the sorted rows into their
  // final slots. The three contracted arrays leave with the result, so
  // they come from the recycling pool (a retired level's graph feeds
  // them).
  obs::Span compact_span(rec, "aggregate/compact");
  check::KernelScope compact_scope("aggregate/compact");
  auto new_degree = ws.buffer<EdgeIdx>(Slot::kAggNewDegree, num_communities);
  device.for_each(num_communities, [&](std::size_t i) {
    new_degree[i] = merged_degree[old_id[i]];
  });
  std::vector<EdgeIdx> offsets =
      ws.take<EdgeIdx>(static_cast<std::size_t>(num_communities) + 1);
  offsets[num_communities] = prim::exclusive_scan(
      std::span<const EdgeIdx>(new_degree.data(), num_communities),
      std::span<EdgeIdx>(offsets.data(), num_communities), ws.scratch(), pool);

  std::vector<VertexId> adj =
      ws.take<VertexId>(static_cast<std::size_t>(offsets[num_communities]));
  std::vector<Weight> w =
      ws.take<Weight>(static_cast<std::size_t>(offsets[num_communities]));
  device.launch(num_communities, 0, [&](simt::TaskContext& ctx) {
    const VertexId c = old_id[ctx.task()];
    const EdgeIdx src = edge_pos[c];
    const EdgeIdx dst = offsets[ctx.task()];
    for (EdgeIdx i = 0; i < merged_degree[c]; ++i) {
      check::note_plain_write(&adj[dst + i]);
      adj[dst + i] = tmp_adj[src + i];
      check::note_plain_write(&w[dst + i]);
      w[dst + i] = tmp_w[src + i];
    }
  });

  AggregationResult result{
      Csr(std::move(offsets), std::move(adj), std::move(w), ws.scratch()),
      std::move(new_id), num_communities};
  ws.emit(rec, "aggregate", ws_since);
  return result;
}

}  // namespace

AggregationResult aggregate(simt::Device& device, const Csr& graph,
                            std::span<const Community> community,
                            obs::Recorder* rec) {
  Workspace ws;
  return aggregate(device, graph, community, ws, rec);
}

AggregationResult aggregate(simt::Device& device, const Csr& graph,
                            std::span<const Community> community, Workspace& ws,
                            obs::Recorder* rec) {
  PlainRows rows(graph);
  return aggregate_impl(device, rows, community, ws, rec);
}

AggregationResult aggregate(simt::Device& device, ZRows& rows,
                            std::span<const Community> community, Workspace& ws,
                            obs::Recorder* rec) {
  return aggregate_impl(device, rows, community, ws, rec);
}

}  // namespace glouvain::core
