// Edge-cut graph partitioner of the sharded multi-device backend
// (DESIGN.md §14). Produces k shards, each a self-contained local Csr:
//
//   [0, num_owned)                  owned vertices, FULL global rows —
//                                   these are the only vertices a
//                                   shard's move phase may relabel;
//   [num_owned, +num_replica)       replicated high-degree hubs
//                                   (hubrep only): frozen mirrors
//                                   carrying their edges into this
//                                   shard (the PowerGraph-style
//                                   vertex-cut split, so a hub's row
//                                   never drags the whole graph into
//                                   one shard's ghost table);
//   [.., +num_ghost)                ghost vertices: frozen, EMPTY rows
//                                   — label-only halo slots whose
//                                   community/tot arrive through the
//                                   exchange plan each round;
//   [local_n - 1] (k > 1)           one phantom "rest of world" vertex
//                                   whose self-loop carries
//                                   pad = global_2m - (local row sum),
//                                   so every shard's total_weight()
//                                   equals the GLOBAL 2m and local
//                                   move gains equal global gains
//                                   exactly (given exchanged tot).
//
// The degree-bucketed cut heuristic follows the paper's binning
// insight: vertices above the top modopt bucket bound (degree > 319 by
// default — the bucket whose hash tables already live in global
// memory) are the hubs worth special-casing; hubrep assigns them to
// the shard holding the plurality of their neighbours and mirrors
// their rows instead of letting one block range absorb them.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/options.hpp"
#include "graph/csr.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::shard {

struct PartitionConfig {
  unsigned num_shards = 2;
  detect::Partition strategy = detect::Partition::kHubRep;
  std::uint64_t seed = 1;
  /// Degree above which a vertex counts as a hub (hubrep only). The
  /// default is the paper's top modularity-optimization bucket bound.
  graph::EdgeIdx hub_degree = 319;
};

/// One shard's local view. Local vertex i corresponds to global vertex
/// global_of[i] (kInvalidVertex for the phantom).
struct Shard {
  graph::Csr local;
  std::vector<graph::VertexId> global_of;
  graph::VertexId num_owned = 0;
  graph::VertexId num_replica = 0;
  graph::VertexId num_ghost = 0;
  bool has_phantom = false;
  /// Self-loop weight of the phantom (global_2m - local row sum).
  graph::Weight pad_weight = 0;
  /// Edges this shard owns under the min-endpoint rule: {u, v} belongs
  /// to owner(min(u, v)). Every global edge is owned by exactly one
  /// shard (the partitioner invariant tests recompute this).
  graph::EdgeIdx owned_edges = 0;

  /// One entry per local slot of global_of, phantom included.
  graph::VertexId num_local() const noexcept {
    return static_cast<graph::VertexId>(global_of.size());
  }
  /// Frozen (non-movable) local vertices: replicas + ghosts + phantom.
  graph::VertexId num_frozen() const noexcept {
    return num_local() - num_owned;
  }
};

/// Per-round halo traffic: every frozen non-phantom slot (replica or
/// ghost) is one label its shard reads from the vertex's owner each
/// round. On this substrate the exchange is a gather from the shared
/// label array; on real devices the reads from one owner would be one
/// NCCL/NVLink message per (peer, round).
struct ExchangePlan {
  /// Sum over shards of num_replica + num_ghost.
  std::uint64_t values = 0;

  /// Labels transferred per exchange round.
  std::uint64_t values_per_round() const noexcept { return values; }
};

struct PlanStats {
  graph::EdgeIdx cut_edges = 0;       ///< edges with endpoints in two shards
  double cut_fraction = 0;            ///< cut_edges / num_edges
  double ghost_ratio = 0;             ///< frozen slots across shards / n
  double imbalance = 0;               ///< max shard arcs / mean shard arcs
  graph::VertexId replicated_hubs = 0; ///< distinct hubs with >=1 mirror
};

struct Plan {
  unsigned num_shards = 1;
  std::vector<unsigned> owner;  ///< global vertex -> owning shard
  std::vector<Shard> shards;
  ExchangePlan exchange;
  PlanStats stats;
};

/// Partition `graph` into config.num_shards shards. Deterministic for
/// a given (graph, config): block boundaries come from the degree
/// prefix sum, random assignment from hash64(v ^ seed), and hubrep
/// from the neighbour-plurality rule with lowest-shard tie-breaks.
/// Every pass but the hub placement runs data-parallel on `pool`; the
/// plan is the same bits for any pool size.
Plan make_plan(const graph::Csr& graph, const PartitionConfig& config,
               simt::ThreadPool& pool = simt::ThreadPool::global());

}  // namespace glouvain::shard
