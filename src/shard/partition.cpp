#include "shard/partition.hpp"

#include <algorithm>
#include <cassert>

#include "util/prng.hpp"

namespace glouvain::shard {

namespace {
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;
using graph::kInvalidVertex;

/// Contiguous ranges balanced by the arc prefix sum; `count` maps a
/// vertex to the arcs it contributes (0 to skip it entirely).
template <typename CountFn>
std::vector<unsigned> block_owners(const Csr& graph, unsigned k,
                                   CountFn&& count) {
  const VertexId n = graph.num_vertices();
  std::vector<unsigned> owner(n, 0);
  double total = 0;
  for (VertexId v = 0; v < n; ++v) total += static_cast<double>(count(v));
  double cum = 0;
  unsigned s = 0;
  for (VertexId v = 0; v < n; ++v) {
    owner[v] = s;
    cum += static_cast<double>(count(v));
    while (s + 1 < k && cum >= total * (s + 1) / k) ++s;
  }
  return owner;
}

std::vector<unsigned> assign_owners(const Csr& graph,
                                    const PartitionConfig& config, unsigned k,
                                    std::vector<bool>& is_hub) {
  const VertexId n = graph.num_vertices();
  is_hub.assign(n, false);
  switch (config.strategy) {
    case detect::Partition::kBlock:
      return block_owners(graph, k, [&](VertexId v) { return graph.degree(v); });
    case detect::Partition::kRandom: {
      std::vector<unsigned> owner(n);
      for (VertexId v = 0; v < n; ++v) {
        owner[v] = static_cast<unsigned>(
            util::hash64(static_cast<std::uint64_t>(v) ^ config.seed) % k);
      }
      return owner;
    }
    case detect::Partition::kHubRep:
      break;
  }
  // hubrep: balance the block ranges over NON-hub arcs (a block range
  // that swallows a hub row is exactly the imbalance this strategy
  // exists to avoid), then place each hub with the plurality of its
  // neighbours. Hub neighbours vote with their tentative block slot.
  // Hubs cluster (the rich club connects to itself), so pure plurality
  // piles them into one shard; a capacity cap redirects an over-full
  // plurality choice to the best under-cap shard instead.
  for (VertexId v = 0; v < n; ++v) {
    is_hub[v] = graph.degree(v) > config.hub_degree;
  }
  std::vector<unsigned> owner = block_owners(
      graph, k, [&](VertexId v) { return is_hub[v] ? 0 : graph.degree(v); });

  // Arc load per shard so far (non-hub block ranges are even by
  // construction), and the per-shard cap that bounds imbalance.
  std::vector<double> load(k, 0);
  double total_arcs = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!is_hub[v]) {
      load[owner[v]] += static_cast<double>(graph.degree(v));
      total_arcs += static_cast<double>(graph.degree(v));
    } else {
      total_arcs += static_cast<double>(graph.degree(v));
    }
  }
  const double cap = 1.05 * total_arcs / k;

  // Heaviest hubs first: they have the least placement freedom.
  std::vector<VertexId> hubs;
  for (VertexId v = 0; v < n; ++v) {
    if (is_hub[v]) hubs.push_back(v);
  }
  std::sort(hubs.begin(), hubs.end(), [&](VertexId a, VertexId b) {
    const auto da = graph.degree(a), db = graph.degree(b);
    return da != db ? da > db : a < b;
  });

  std::vector<std::uint64_t> votes(k);
  for (const VertexId h : hubs) {
    std::fill(votes.begin(), votes.end(), 0);
    for (const VertexId u : graph.neighbors(h)) {
      if (u != h) ++votes[owner[u]];
    }
    const double deg = static_cast<double>(graph.degree(h));
    unsigned best = k;  // best under-cap shard by votes
    std::uint64_t best_votes = 0;
    unsigned lightest = 0;
    for (unsigned s = 0; s < k; ++s) {
      if (load[s] < load[lightest]) lightest = s;
      if (load[s] + deg > cap) continue;
      if (best == k || votes[s] > best_votes) {
        best_votes = votes[s];
        best = s;
      }
    }
    // Every shard over cap (possible once the cap fills): fall back to
    // the lightest, which keeps the maximum load minimal.
    if (best == k) best = lightest;
    owner[h] = best;
    load[best] += deg;
  }
  return owner;
}

}  // namespace

Plan make_plan(const Csr& graph, const PartitionConfig& config) {
  const VertexId n = graph.num_vertices();
  const unsigned k =
      std::max(1u, std::min(config.num_shards, std::max<VertexId>(n, 1)));

  Plan plan;
  plan.num_shards = k;
  std::vector<bool> is_hub;
  plan.owner = assign_owners(graph, config, k, is_hub);
  const std::vector<unsigned>& owner = plan.owner;
  plan.shards.resize(k);

  // --- global cut/ownership accounting (min-endpoint edge rule).
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = graph.neighbors(v);
    for (const VertexId u : nbrs) {
      if (u < v) continue;  // count each undirected edge once
      if (owner[u] != owner[v]) ++plan.stats.cut_edges;
      ++plan.shards[owner[std::min(u, v)]].owned_edges;
    }
  }
  plan.stats.cut_fraction =
      graph.num_edges() > 0
          ? static_cast<double>(plan.stats.cut_edges) /
                static_cast<double>(graph.num_edges())
          : 0;

  // --- owned lists (ascending by construction of the v loop).
  std::vector<std::vector<VertexId>> owned(k);
  for (VertexId v = 0; v < n; ++v) owned[owner[v]].push_back(v);

  // --- hub mirrors: every shard owning a neighbour of hub h reads h,
  // so it receives a frozen replica carrying h's edges INTO that shard
  // (the split row — never the full row, which would drag the rest of
  // the graph in as ghosts).
  std::vector<std::vector<VertexId>> replicas(k);
  std::vector<bool> hub_mirrored(n, false);
  {
    std::vector<bool> touches(k);
    for (VertexId h = 0; h < n; ++h) {
      if (!is_hub[h]) continue;
      std::fill(touches.begin(), touches.end(), false);
      for (const VertexId u : graph.neighbors(h)) touches[owner[u]] = true;
      for (unsigned s = 0; s < k; ++s) {
        if (touches[s] && s != owner[h]) {
          replicas[s].push_back(h);
          hub_mirrored[h] = true;
        }
      }
    }
    for (auto& list : replicas) std::sort(list.begin(), list.end());
    for (VertexId h = 0; h < n; ++h) {
      if (hub_mirrored[h]) ++plan.stats.replicated_hubs;
    }
  }

  // --- per-shard assembly.
  const Weight global_2m = graph.total_weight();
  std::vector<VertexId> local_id(n, kInvalidVertex);
  std::vector<VertexId> ghosts;
  std::uint64_t frozen_total = 0;
  EdgeIdx max_arcs = 0;
  EdgeIdx sum_arcs = 0;

  for (unsigned s = 0; s < k; ++s) {
    Shard& shard = plan.shards[s];
    const std::vector<VertexId>& own = owned[s];
    const std::vector<VertexId>& reps = replicas[s];

    // Ghosts: non-hub endpoints of owned rows living elsewhere (hub
    // endpoints are covered by the replica mirrors above).
    ghosts.clear();
    for (const VertexId v : own) {
      for (const VertexId u : graph.neighbors(v)) {
        if (owner[u] == s || is_hub[u]) continue;
        if (local_id[u] == kInvalidVertex) {
          local_id[u] = 0;  // seen-mark; real ids assigned below
          ghosts.push_back(u);
        }
      }
    }
    for (const VertexId g : ghosts) local_id[g] = kInvalidVertex;
    std::sort(ghosts.begin(), ghosts.end());

    shard.num_owned = static_cast<VertexId>(own.size());
    shard.num_replica = static_cast<VertexId>(reps.size());
    shard.num_ghost = static_cast<VertexId>(ghosts.size());
    shard.has_phantom = k > 1;
    const VertexId local_n = shard.num_owned + shard.num_replica +
                             shard.num_ghost + (shard.has_phantom ? 1 : 0);

    shard.global_of.clear();
    shard.global_of.reserve(local_n);
    const auto admit = [&](const std::vector<VertexId>& list) {
      for (const VertexId v : list) {
        local_id[v] = static_cast<VertexId>(shard.global_of.size());
        shard.global_of.push_back(v);
      }
    };
    admit(own);
    admit(reps);
    admit(ghosts);
    if (shard.has_phantom) shard.global_of.push_back(kInvalidVertex);

    // Row widths: full rows for owned, split rows for replicas, empty
    // for ghosts, one self-loop for the phantom.
    std::vector<EdgeIdx> offsets(static_cast<std::size_t>(local_n) + 1, 0);
    for (VertexId i = 0; i < shard.num_owned; ++i) {
      offsets[i + 1] = graph.degree(shard.global_of[i]);
    }
    for (VertexId i = shard.num_owned; i < shard.num_owned + shard.num_replica;
         ++i) {
      const VertexId h = shard.global_of[i];
      EdgeIdx width = 0;
      for (const VertexId u : graph.neighbors(h)) width += owner[u] == s;
      offsets[i + 1] = width;
    }
    if (shard.has_phantom) offsets[local_n] = 1;
    for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

    std::vector<VertexId> adj(offsets.back());
    std::vector<Weight> weights(offsets.back());
    Weight local_sum = 0;
    for (VertexId i = 0; i < shard.num_owned + shard.num_replica; ++i) {
      const VertexId v = shard.global_of[i];
      const bool split = i >= shard.num_owned;
      EdgeIdx at = offsets[i];
      const auto nbrs = graph.neighbors(v);
      const auto wts = graph.weights(v);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        if (split && owner[nbrs[e]] != s) continue;
        assert(local_id[nbrs[e]] != kInvalidVertex);
        adj[at] = local_id[nbrs[e]];
        weights[at] = wts[e];
        local_sum += wts[e];
        ++at;
      }
      assert(at == offsets[i + 1]);
    }
    if (shard.has_phantom) {
      shard.pad_weight = std::max<Weight>(0, global_2m - local_sum);
      adj[offsets.back() - 1] = local_n - 1;
      weights[offsets.back() - 1] = shard.pad_weight;
    }

    const EdgeIdx arcs = offsets[shard.num_owned + shard.num_replica];
    max_arcs = std::max(max_arcs, arcs);
    sum_arcs += arcs;
    frozen_total += shard.num_frozen();

    shard.local = Csr(std::move(offsets), std::move(adj), std::move(weights));

    // Exchange plan: every frozen non-phantom slot is one label read
    // from its owner per round.
    plan.exchange.values += shard.num_replica + shard.num_ghost;

    // Reset the map for the next shard (only entries this shard set).
    for (const VertexId v : shard.global_of) {
      if (v != kInvalidVertex) local_id[v] = kInvalidVertex;
    }
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
