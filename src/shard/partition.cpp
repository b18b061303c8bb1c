#include "shard/partition.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "prim/bucket.hpp"
#include "prim/reduce.hpp"
#include "prim/scan.hpp"
#include "prim/scratch.hpp"
#include "simt/atomics.hpp"
#include "util/prng.hpp"

namespace glouvain::shard {

namespace {
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;
using graph::kInvalidVertex;
using simt::ThreadPool;

/// Scheduling grain of the passes over rows, whose degrees span orders
/// of magnitude: small enough that a chunk holding a hub row does not
/// serialize the pass.
constexpr std::size_t kRowGrain = 32;

/// Contiguous ranges balanced by the arc prefix sum; `count` maps a
/// vertex to the arcs it contributes (0 to skip it entirely). Vertex v
/// joins block s once its exclusive prefix reaches total·s/k, the same
/// boundaries a running sum would cross. `prefix` receives the n + 1
/// exclusive sums.
template <typename CountFn>
void block_owners(VertexId n, unsigned k, CountFn&& count,
                  std::span<unsigned> owner, std::span<EdgeIdx> prefix,
                  prim::Scratch& scratch, ThreadPool& pool) {
  pool.parallel_for(n, [&](std::size_t v, unsigned) { prefix[v] = count(v); });
  prefix[n] = prim::exclusive_scan(prefix.first(n), scratch, pool);
  const double total = static_cast<double>(prefix[n]);
  std::vector<double> bound(k - 1);
  for (unsigned s = 1; s < k; ++s) bound[s - 1] = total * s / k;
  pool.parallel_for(n, [&](std::size_t v, unsigned) {
    // Vertex 0 opens block 0 even when every count is zero.
    owner[v] = v == 0 ? 0
                      : static_cast<unsigned>(
                            std::upper_bound(bound.begin(), bound.end(),
                                             static_cast<double>(prefix[v])) -
                            bound.begin());
  });
}

/// The hubs of hubrep, ascending, with every vertex's position among
/// them.
struct Hubs {
  std::vector<VertexId> flag;  ///< 1 for a hub, else 0
  std::vector<VertexId> pos;   ///< exclusive scan of flag
  std::vector<VertexId> ids;   ///< ascending hub ids
  /// arcs[i * k + s]: neighbours of hub i that shard s owns.
  std::vector<EdgeIdx> arcs;
};

/// hubrep: balance the block ranges over NON-hub arcs (a block range
/// that swallows a hub row is exactly the imbalance this strategy
/// exists to avoid), then place each hub with the plurality of its
/// neighbours. Hub neighbours vote with their current slot: the
/// tentative block slot until they are placed themselves. Hubs cluster
/// (the rich club connects to itself), so pure plurality piles them
/// into one shard; a capacity cap redirects an over-full plurality
/// choice to the best under-cap shard instead.
void place_hubs(const Csr& graph, const PartitionConfig& config, unsigned k,
                std::span<unsigned> owner, Hubs& hubs, prim::Scratch& scratch,
                ThreadPool& pool) {
  const VertexId n = graph.num_vertices();
  hubs.flag.resize(n);
  hubs.pos.resize(n);
  pool.parallel_for(n, [&](std::size_t v, unsigned) {
    hubs.flag[v] = graph.degree(static_cast<VertexId>(v)) > config.hub_degree;
  });
  const VertexId num_hubs = prim::exclusive_scan(
      std::span<const VertexId>(hubs.flag), std::span<VertexId>(hubs.pos),
      scratch, pool);
  hubs.ids.resize(num_hubs);
  pool.parallel_for(n, [&](std::size_t v, unsigned) {
    if (hubs.flag[v]) hubs.ids[hubs.pos[v]] = static_cast<VertexId>(v);
  });

  std::vector<EdgeIdx> prefix(static_cast<std::size_t>(n) + 1);
  block_owners(
      n, k,
      [&](std::size_t v) {
        return hubs.flag[v] ? 0 : graph.degree(static_cast<VertexId>(v));
      },
      owner, prefix, scratch, pool);

  // Arc load per shard so far: the non-hub block ranges are contiguous,
  // so each load is a difference of prefix sums. The cap bounds
  // imbalance.
  const auto first = [&](unsigned s) {
    return std::lower_bound(owner.begin(), owner.end(), s) - owner.begin();
  };
  std::vector<double> load(k);
  for (unsigned s = 0; s < k; ++s) {
    load[s] = static_cast<double>(prefix[first(s + 1)] - prefix[first(s)]);
  }
  const double cap = 1.05 * static_cast<double>(graph.num_arcs()) / k;

  // Non-hub neighbours vote with a slot placement never changes, so
  // their votes are counted per hub in parallel, along with each hub's
  // hub neighbours (as positions in ids), which vote with their slot at
  // the time of placement. Each task tallies privately and writes its
  // row once: neighbouring hubs' rows share cache lines.
  std::vector<std::uint64_t> votes(static_cast<std::size_t>(num_hubs) * k);
  std::vector<EdgeIdx> links_at(static_cast<std::size_t>(num_hubs) + 1);
  pool.parallel_for(num_hubs, 1, [&](std::size_t i, unsigned) {
    const VertexId h = hubs.ids[i];
    std::vector<std::uint64_t> tally(k, 0);
    EdgeIdx links = 0;
    for (const VertexId u : graph.neighbors(h)) {
      if (!hubs.flag[u]) {
        ++tally[owner[u]];
      } else if (u != h) {
        ++links;
      }
    }
    std::copy(tally.begin(), tally.end(), votes.begin() + i * k);
    links_at[i] = links;
  });
  links_at[num_hubs] = prim::exclusive_scan(
      std::span<EdgeIdx>(links_at.data(), num_hubs), scratch, pool);
  std::vector<VertexId> links(links_at[num_hubs]);
  pool.parallel_for(num_hubs, 1, [&](std::size_t i, unsigned) {
    const VertexId h = hubs.ids[i];
    EdgeIdx at = links_at[i];
    for (const VertexId u : graph.neighbors(h)) {
      if (hubs.flag[u] && u != h) links[at++] = hubs.pos[u];
    }
  });

  // Heaviest hubs first: they have the least placement freedom. The
  // placement is the one sequential step: each choice moves a hub that
  // later hubs' votes and the loads see.
  std::vector<unsigned> slot(num_hubs);
  for (VertexId i = 0; i < num_hubs; ++i) slot[i] = owner[hubs.ids[i]];
  std::vector<VertexId> order(num_hubs);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const auto da = graph.degree(hubs.ids[a]), db = graph.degree(hubs.ids[b]);
    return da != db ? da > db : a < b;
  });
  for (const VertexId i : order) {
    std::uint64_t* vote = votes.data() + static_cast<std::size_t>(i) * k;
    for (EdgeIdx e = links_at[i]; e < links_at[i + 1]; ++e) {
      ++vote[slot[links[e]]];
    }
    const double deg = static_cast<double>(graph.degree(hubs.ids[i]));
    unsigned best = k;  // best under-cap shard by votes
    std::uint64_t best_votes = 0;
    unsigned lightest = 0;
    for (unsigned s = 0; s < k; ++s) {
      if (load[s] < load[lightest]) lightest = s;
      if (load[s] + deg > cap) continue;
      if (best == k || vote[s] > best_votes) {
        best_votes = vote[s];
        best = s;
      }
    }
    // Every shard over cap (possible once the cap fills): fall back to
    // the lightest, which keeps the maximum load minimal.
    if (best == k) best = lightest;
    slot[i] = best;
    load[best] += deg;
  }
  pool.parallel_for(num_hubs, [&](std::size_t i, unsigned) {
    owner[hubs.ids[i]] = slot[i];
  });

  // Per hub and shard, the neighbours that shard owns: a nonzero count
  // away from the hub's owner is a mirror, and the count is its width.
  hubs.arcs.resize(static_cast<std::size_t>(num_hubs) * k);
  pool.parallel_for(num_hubs, 1, [&](std::size_t i, unsigned) {
    std::vector<EdgeIdx> tally(k, 0);
    for (const VertexId u : graph.neighbors(hubs.ids[i])) ++tally[owner[u]];
    std::copy(tally.begin(), tally.end(), hubs.arcs.begin() + i * k);
  });
}

/// Cut edges and per-shard owned edges of a range of rows.
struct EdgeCounts {
  EdgeIdx cut = 0;
  std::vector<EdgeIdx> owned;  ///< per shard

  EdgeCounts& operator+=(const EdgeCounts& other) {
    cut += other.cut;
    owned.resize(std::max(owned.size(), other.owned.size()), 0);
    for (std::size_t s = 0; s < other.owned.size(); ++s) {
      owned[s] += other.owned[s];
    }
    return *this;
  }
};

}  // namespace

Plan make_plan(const Csr& graph, const PartitionConfig& config,
               ThreadPool& pool) {
  const VertexId n = graph.num_vertices();
  const unsigned k =
      std::max(1u, std::min(config.num_shards, std::max<VertexId>(n, 1)));
  prim::Scratch scratch;

  Plan plan;
  plan.num_shards = k;
  plan.owner.resize(n);
  const std::span<unsigned> owner(plan.owner);
  plan.shards.resize(k);

  Hubs hubs;
  switch (config.strategy) {
    case detect::Partition::kBlock: {
      std::vector<EdgeIdx> prefix(static_cast<std::size_t>(n) + 1);
      block_owners(
          n, k,
          [&](std::size_t v) { return graph.degree(static_cast<VertexId>(v)); },
          owner, prefix, scratch, pool);
      break;
    }
    case detect::Partition::kRandom:
      pool.parallel_for(n, [&](std::size_t v, unsigned) {
        owner[v] = static_cast<unsigned>(util::hash64(v ^ config.seed) % k);
      });
      break;
    case detect::Partition::kHubRep:
      place_hubs(graph, config, k, owner, hubs, scratch, pool);
      break;
  }
  const auto is_hub = [&](VertexId v) {
    return !hubs.flag.empty() && hubs.flag[v];
  };

  // --- global cut/ownership accounting (min-endpoint edge rule).
  EdgeCounts counts = prim::reduce(
      n,
      [&](std::size_t begin, std::size_t end, unsigned) {
        EdgeCounts part;
        part.owned.assign(k, 0);
        for (std::size_t v = begin; v < end; ++v) {
          const unsigned o = owner[v];
          for (const VertexId u : graph.neighbors(static_cast<VertexId>(v))) {
            if (u < v) continue;  // count each undirected edge once
            part.cut += owner[u] != o;
            ++part.owned[o];
          }
        }
        return part;
      },
      pool);
  counts.owned.resize(k, 0);
  plan.stats.cut_edges = counts.cut;
  plan.stats.cut_fraction =
      graph.num_edges() > 0
          ? static_cast<double>(plan.stats.cut_edges) /
                static_cast<double>(graph.num_edges())
          : 0;

  // --- owned lists: a stable counting sort by owner, so each shard's
  // slice is ascending.
  std::vector<VertexId> owned(n);
  std::vector<std::size_t> owned_at(static_cast<std::size_t>(k) + 1);
  prim::bucket_sort_index(
      n, k, [&](std::size_t v) { return owner[v]; },
      std::span<VertexId>(owned), std::span<std::size_t>(owned_at), scratch,
      pool);

  // --- hub mirrors: every shard owning a neighbour of hub h reads h,
  // so it receives a frozen replica carrying h's edges INTO that shard
  // (the split row — never the full row, which would drag the rest of
  // the graph in as ghosts). Lists are ascending by hub id.
  std::vector<std::vector<VertexId>> replicas(k);
  for (VertexId i = 0; i < hubs.ids.size(); ++i) {
    const VertexId h = hubs.ids[i];
    bool mirrored = false;
    for (unsigned s = 0; s < k; ++s) {
      if (hubs.arcs[static_cast<std::size_t>(i) * k + s] && s != owner[h]) {
        replicas[s].push_back(h);
        mirrored = true;
      }
    }
    plan.stats.replicated_hubs += mirrored;
  }

  // --- per-shard layout: local ids (owned, mirrors, ghosts, then the
  // phantom) and row widths.
  std::vector<VertexId> ghost_mark(n);
  std::vector<VertexId> ghost_pos(n);
  std::vector<std::vector<EdgeIdx>> offsets(k);
  for (unsigned s = 0; s < k; ++s) {
    Shard& shard = plan.shards[s];
    const std::span<const VertexId> own(owned.data() + owned_at[s],
                                        owned_at[s + 1] - owned_at[s]);
    const std::vector<VertexId>& reps = replicas[s];

    // Ghosts: non-hub endpoints of owned rows living elsewhere (hub
    // endpoints are covered by the replica mirrors above), marked from
    // the owned rows and compacted in ascending id order.
    pool.parallel_for(own.size(), kRowGrain, [&](std::size_t i, unsigned) {
      for (const VertexId u : graph.neighbors(own[i])) {
        // Test first: a ghost is seen from many rows, marked once.
        if (owner[u] != s && !is_hub(u) && !simt::atomic_load(ghost_mark[u])) {
          simt::atomic_store(ghost_mark[u], VertexId{1});
        }
      }
    });
    shard.num_ghost = prim::exclusive_scan(
        std::span<const VertexId>(ghost_mark), std::span<VertexId>(ghost_pos),
        scratch, pool);
    shard.num_owned = static_cast<VertexId>(own.size());
    shard.num_replica = static_cast<VertexId>(reps.size());
    shard.has_phantom = k > 1;
    const VertexId rows = shard.num_owned + shard.num_replica;
    const VertexId local_n =
        rows + shard.num_ghost + (shard.has_phantom ? 1 : 0);

    std::vector<VertexId>& global_of = shard.global_of;
    global_of.resize(local_n);
    std::copy(own.begin(), own.end(), global_of.begin());
    std::copy(reps.begin(), reps.end(), global_of.begin() + shard.num_owned);
    pool.parallel_for(n, [&](std::size_t v, unsigned) {
      if (ghost_mark[v]) {
        global_of[rows + ghost_pos[v]] = static_cast<VertexId>(v);
      }
    });
    if (shard.has_phantom) global_of[local_n - 1] = kInvalidVertex;
    // Clear only the marks this shard set.
    pool.parallel_for(shard.num_ghost, [&](std::size_t j, unsigned) {
      ghost_mark[global_of[rows + j]] = 0;
    });

    // Row widths: full rows for owned, split rows for replicas, empty
    // for ghosts, one self-loop for the phantom.
    std::vector<EdgeIdx>& at = offsets[s];
    at.resize(static_cast<std::size_t>(local_n) + 1);
    pool.parallel_for(local_n, [&](std::size_t i, unsigned) {
      if (i < shard.num_owned) {
        at[i] = graph.degree(global_of[i]);
      } else if (i < rows) {
        const std::size_t hub = hubs.pos[global_of[i]];
        at[i] = hubs.arcs[hub * k + s];
      } else {
        at[i] = global_of[i] == kInvalidVertex ? 1 : 0;
      }
    });
    at[local_n] = prim::exclusive_scan(std::span<EdgeIdx>(at.data(), local_n),
                                       scratch, pool);
  }

  // The row arrays are the plan's bulk: shards allocate (and so zero)
  // theirs concurrently.
  std::vector<std::vector<VertexId>> adj(k);
  std::vector<std::vector<Weight>> weights(k);
  pool.parallel_for(k, 1, [&](std::size_t s, unsigned) {
    adj[s].resize(offsets[s].back());
    weights[s].resize(offsets[s].back());
  });

  // --- per-shard rows: owned rows in full, replica rows split to the
  // endpoints the shard owns, endpoints renumbered to local ids.
  const Weight global_2m = graph.total_weight();
  std::vector<VertexId> local_id(n);
  std::uint64_t frozen_total = 0;
  EdgeIdx max_arcs = 0;
  EdgeIdx sum_arcs = 0;
  for (unsigned s = 0; s < k; ++s) {
    Shard& shard = plan.shards[s];
    const std::vector<VertexId>& global_of = shard.global_of;
    const VertexId local_n = shard.num_local();
    const VertexId rows = shard.num_owned + shard.num_replica;
    pool.parallel_for(local_n - (shard.has_phantom ? 1 : 0),
                      [&](std::size_t i, unsigned) {
                        local_id[global_of[i]] = static_cast<VertexId>(i);
                      });
    const std::vector<EdgeIdx>& at = offsets[s];
    std::vector<VertexId>& out_adj = adj[s];
    std::vector<Weight>& out_w = weights[s];
    pool.parallel_for(rows, kRowGrain, [&](std::size_t i, unsigned) {
      const bool split = i >= shard.num_owned;
      EdgeIdx e_out = at[i];
      const auto nbrs = graph.neighbors(global_of[i]);
      const auto wts = graph.weights(global_of[i]);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        if (split && owner[nbrs[e]] != s) continue;
        out_adj[e_out] = local_id[nbrs[e]];
        out_w[e_out] = wts[e];
        ++e_out;
      }
    });
    const EdgeIdx arcs = at[rows];
    if (shard.has_phantom) {
      // Chunk-ordered, so the pad is the same bits on any pool.
      const Weight local_sum = prim::reduce(
          arcs,
          [&](std::size_t begin, std::size_t end, unsigned) {
            Weight sum = 0;
            for (std::size_t e = begin; e < end; ++e) sum += out_w[e];
            return sum;
          },
          scratch, pool);
      shard.pad_weight = std::max<Weight>(0, global_2m - local_sum);
      out_adj[arcs] = local_n - 1;
      out_w[arcs] = shard.pad_weight;
    }
    shard.owned_edges = counts.owned[s];

    max_arcs = std::max(max_arcs, arcs);
    sum_arcs += arcs;
    frozen_total += shard.num_frozen();

    shard.local = Csr(std::move(offsets[s]), std::move(out_adj),
                      std::move(out_w), scratch);

    // Exchange plan: every frozen non-phantom slot is one label read
    // from its owner per round.
    plan.exchange.values += shard.num_replica + shard.num_ghost;
  }

  plan.stats.ghost_ratio =
      n > 0 ? static_cast<double>(frozen_total) / static_cast<double>(n) : 0;
  plan.stats.imbalance =
      sum_arcs > 0 ? static_cast<double>(max_arcs) * k /
                         static_cast<double>(sum_arcs)
                   : 1.0;
  return plan;
}

}  // namespace glouvain::shard
