#include "core/aggregate.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>
#include <string_view>

#include "check/check.hpp"
#include "core/buckets.hpp"
#include "core/hash_map.hpp"
#include "core/rows.hpp"
#include "core/workspace.hpp"
#include "obs/recorder.hpp"
#include "prim/reduce.hpp"
#include "prim/scan.hpp"
#include "simt/atomics.hpp"
#include "simt/kernel_ops.hpp"
#include "simt/lane_group.hpp"
#include "util/primes.hpp"

namespace glouvain::core {

namespace {

using graph::Community;
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;

/// Communities whose member degrees sum to at most this many arcs
/// merge in registers instead of a hash table.
constexpr EdgeIdx kSmallMergeArcs = 16;

/// Whether a community of `degree` arcs merges into a table indexed by
/// new community id rather than a hash table: the level has at most
/// twice as many communities as the hash table would have slots. The
/// direct table may be the larger one because it also saves the probe
/// chains and the compaction sort.
bool merges_direct(EdgeIdx degree, VertexId num_communities) {
  return degree > kSmallMergeArcs &&
         num_communities <=
             2 * std::uint64_t{util::hash_params_for_degree(degree).capacity};
}

/// `count` merge-table slots from the task's arena: "shared memory"
/// below the scheme's global_from bucket, "global memory" from there on.
template <typename T>
std::span<T> table_slots(simt::SharedArena& arena, bool global,
                         std::size_t count) {
  return global ? arena.alloc_global<T>(count) : arena.alloc<T>(count);
}

/// mergeCommunity for one community of at most kSmallMergeArcs arcs:
/// (neighbour community, weight) pairs in a fixed array, found by
/// linear search. Members come in `com` order and each row in
/// adjacency order, self-loops included: the order the table adds in,
/// so every super-edge weight has the table path's bits. The pairs
/// are emitted in first-seen order; compaction sorts a row that is not
/// in id order, so the contracted graph does not depend on it.
template <typename Rows>
void merge_small(Rows& rows, unsigned worker,
                 std::span<const Community> community,
                 std::span<const VertexId> members,
                 std::span<const VertexId> new_id, std::span<VertexId> out_adj,
                 std::span<Weight> out_w, EdgeIdx& out_degree) {
  std::array<Community, kSmallMergeArcs> keys;
  std::array<Weight, kSmallMergeArcs> weights;
  EdgeIdx n = 0;
  for (const VertexId v : members) {
    const RowView r = rows.row(v, worker);
    for (std::uint32_t i = 0; i < r.deg; ++i) {
      const Community to = community[r.adj[i]];
      EdgeIdx at = 0;
      while (at < n && keys[at] != to) ++at;
      if (at == n) {
        assert(n < kSmallMergeArcs);  // the caller bounds the arc sum
        keys[n] = to;
        weights[n++] = r.w[i];
      } else {
        weights[at] += r.w[i];
      }
    }
  }
  for (EdgeIdx i = 0; i < n; ++i) {
    check::note_plain_write(&out_adj[i]);
    out_adj[i] = new_id[keys[i]];
    check::note_plain_write(&out_w[i]);
    out_w[i] = weights[i];
  }
  check::note_plain_write(&out_degree);
  out_degree = n;
}

/// mergeCommunity for a community that merges_direct: one (key, weight)
/// slot per new community id, so no probing. Members come in `com`
/// order and each row in adjacency order, self-loops included; the
/// first add to a key stores the weight, as the table's claim does, and
/// later adds accumulate, so every super-edge weight has the table
/// path's bits. The occupied slots are emitted in ascending id order,
/// which compaction copies without sorting.
template <typename Rows>
void merge_direct(Rows& rows, unsigned worker,
                  std::span<const Community> community,
                  std::span<const VertexId> members,
                  std::span<const VertexId> new_id, std::span<Community> keys,
                  std::span<Weight> weights, std::span<VertexId> out_adj,
                  std::span<Weight> out_w, EdgeIdx& out_degree) {
  for (Community& key : keys) {
    check::note_init(&key);
    key = graph::kInvalidCommunity;
  }
  for (const VertexId v : members) {
    const RowView r = rows.row(v, worker);
    for (std::uint32_t i = 0; i < r.deg; ++i) {
      const VertexId to = new_id[community[r.adj[i]]];
      check::note_plain_read(&keys[to]);
      check::note_plain_write(&weights[to]);
      if (keys[to] == graph::kInvalidCommunity) {
        check::note_plain_claim(&keys[to]);
        keys[to] = to;
        weights[to] = r.w[i];
      } else {
        weights[to] += r.w[i];
      }
    }
  }
  EdgeIdx n = 0;
  for (VertexId to = 0; to < keys.size(); ++to) {
    check::note_plain_read(&keys[to]);
    if (keys[to] == graph::kInvalidCommunity) continue;
    check::note_plain_read(&weights[to]);
    check::note_plain_write(&out_adj[n]);
    out_adj[n] = to;
    check::note_plain_write(&out_w[n]);
    out_w[n++] = weights[to];
  }
  check::note_plain_write(&out_degree);
  out_degree = n;
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
  // binned by their degree-sum bound; each task merges the closed
  // neighbourhood of one community (in registers, in a table indexed by
  // new id, or in a hash table) and emits the merged edge list into its
  // scratch region.
  auto tmp_adj = ws.buffer<VertexId>(Slot::kAggTmpAdj, scratch_arcs);
  auto tmp_w = ws.buffer<Weight>(Slot::kAggTmpW, scratch_arcs);
  auto merged_degree = ws.buffer<EdgeIdx>(Slot::kAggMergedDegree, n);
  // A community with members but zero degree never reaches a merge
  // kernel, so its width must already read 0 at compaction.
  device.for_each(n, [&](std::size_t c) { merged_degree[c] = 0; });

  static const BucketScheme scheme = BucketScheme::paper_aggregation();
  Binned& binned = ws.aggregate_binned();
  {
    obs::Span span(rec, "aggregate/binning");
    bin_by_key_into(
        n, scheme, [&](VertexId c) { return com_degree[c]; }, 1,
        [](VertexId) { return 0u; }, binned, ws.scratch(), pool);
  }
  if (rec) {
    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      rec->count("aggregate/bucket_occupancy",
                 static_cast<double>(binned.bucket(b).size()),
                 static_cast<std::int64_t>(b));
    }
    const std::uint64_t direct = prim::reduce(
        num_communities,
        [&](std::size_t begin, std::size_t end, unsigned) {
          std::uint64_t k = 0;
          for (std::size_t i = begin; i < end; ++i) {
            k += merges_direct(com_degree[old_id[i]], num_communities);
          }
          return k;
        },
        ws.scratch(), pool);
    rec->count("aggregate/direct_merges", static_cast<double>(direct));
  }

  std::vector<std::string> bucket_names;
  if (rec) {
    bucket_names.resize(scheme.num_buckets());
    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      bucket_names[b] = "aggregate/bucket" + std::to_string(b);
    }
  }

  for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
    auto bucket = binned.bucket(b);
    if (bucket.empty()) continue;
    const unsigned lanes = scheme.lanes[b];
    const bool use_global = b >= scheme.global_from;
    const std::size_t grain = use_global ? 1 : 0;

    obs::Span kernel_span(
        rec, rec ? std::string_view(bucket_names[b]) : std::string_view());
    check::KernelScope kernel_scope("aggregate/bucket", b);
    device.launch(bucket.size(), grain, [&](simt::TaskContext& ctx) {
      const Community c = bucket[ctx.task()];
      if (com_size[c] == 0 || com_degree[c] == 0) return;
      // Binning contract: the merge table is sized from the bucket's
      // degree-sum class.
      if (b < scheme.bounds.size()) {
        check::contract(com_degree[c] <= scheme.bounds[b],
                        "aggregate: community degree exceeds its bucket bound");
      }
      if (com_degree[c] <= kSmallMergeArcs) {
        merge_small(rows, ctx.worker(), community,
                    com.subspan(vertex_start[c], com_size[c]), new_id,
                    tmp_adj.subspan(edge_pos[c], com_degree[c]),
                    tmp_w.subspan(edge_pos[c], com_degree[c]),
                    merged_degree[c]);
        return;
      }
      if (merges_direct(com_degree[c], num_communities)) {
        merge_direct(
            rows, ctx.worker(), community,
            com.subspan(vertex_start[c], com_size[c]), new_id,
            table_slots<Community>(ctx.shared(), use_global, num_communities),
            table_slots<Weight>(ctx.shared(), use_global, num_communities),
            tmp_adj.subspan(edge_pos[c], com_degree[c]),
            tmp_w.subspan(edge_pos[c], com_degree[c]), merged_degree[c]);
        return;
      }
      const util::HashTableParams params =
          util::hash_params_for_degree(com_degree[c]);
      const std::size_t cap = params.capacity;
      auto keys = table_slots<Community>(ctx.shared(), use_global, cap);
      auto weights = table_slots<Weight>(ctx.shared(), use_global, cap);
      // Task-local: one community is merged entirely inside one OS
      // thread (see hash_map.hpp for the atomicity policy).
      LocalCommunityHashMap table(keys, weights, params);
      table.clear();

      // Members processed one after another, all lanes cooperating on
      // each member's edge list (§4.1, aggregation thread assignment).
      // One group hashes and emits.
      simt::with_lane_group(lanes, [&](const auto& group) {
        for (EdgeIdx m = vertex_start[c]; m < vertex_start[c] + com_size[c];
             ++m) {
          simt::hash_row(group, rows.row(com[m], ctx.worker()),
                         community.data(), table);
        }

        // Emission: each lane counts the slots it owns, a lane prefix
        // sum assigns disjoint output ranges, then lanes copy their
        // entries — the paper's "mark, prefix-sum across threads, move
        // in parallel".
        std::array<EdgeIdx, 128> lane_count{};
        group.strided_for(cap, [&](unsigned lane, std::size_t pos) {
          if (table.occupied(pos)) ++lane_count[lane];
        });
        const EdgeIdx total = group.exclusive_scan(
            std::span<EdgeIdx>(lane_count.data(), lanes));
        std::array<EdgeIdx, 128> lane_cursor = lane_count;
        group.strided_for(cap, [&](unsigned lane, std::size_t pos) {
          if (!table.occupied(pos)) return;
          const EdgeIdx at = edge_pos[c] + lane_cursor[lane]++;
          // Neighbouring community id is rewritten to its new vertex id
          // here, exactly as mergeCommunity does.
          check::note_plain_write(&tmp_adj[at]);
          tmp_adj[at] = new_id[table.key_at(pos)];
          check::note_plain_write(&tmp_w[at]);
          tmp_w[at] = table.weight_at(pos);
        });
        check::note_plain_write(&merged_degree[c]);
        merged_degree[c] = total;
      });
    });
  }

  // --- Compaction (the prefix-sum + move pass after line 23): gather
  // per-new-vertex degrees, scan, and copy rows into their final slots.
  // The three contracted arrays leave with the result, so they come
  // from the recycling pool (a retired level's graph feeds them).
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
    const EdgeIdx deg = merged_degree[c];
    if (deg == 0) return;
    const auto put = [&](EdgeIdx i, VertexId id, Weight weight) {
      check::note_plain_write(&adj[dst + i]);
      adj[dst + i] = id;
      check::note_plain_write(&w[dst + i]);
      w[dst + i] = weight;
    };
    // Library-wide Csr invariant: rows sorted by neighbor id. A direct
    // merge emits its row in id order, so it is copied as it stands.
    const VertexId* ids = tmp_adj.data() + src;
    if (std::is_sorted(ids, ids + deg)) {
      for (EdgeIdx i = 0; i < deg; ++i) put(i, ids[i], tmp_w[src + i]);
      return;
    }
    // The hash table emits in slot order, so sort the (short) row here;
    // the row buffer comes from the task's arena (global side: this is
    // staging, not a hash table, so it must not count as a shared-memory
    // spill).
    struct RowEntry {
      VertexId id;
      Weight weight;
    };
    auto row = ctx.shared().alloc_global<RowEntry>(
        static_cast<std::size_t>(deg));
    for (EdgeIdx i = 0; i < deg; ++i) {
      row[i] = {ids[i], tmp_w[src + i]};
    }
    std::sort(row.begin(), row.end(),
              [](const RowEntry& a, const RowEntry& b) { return a.id < b.id; });
    for (EdgeIdx i = 0; i < deg; ++i) put(i, row[i].id, row[i].weight);
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
