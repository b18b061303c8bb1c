// Configuration of the GPU-style Louvain algorithm: degree buckets,
// lane assignment, shared/global hash placement, update strategy, and
// the threshold schedule. Defaults are exactly the paper's (§4.1).
#pragma once

#include <vector>

#include "core/common.hpp"
#include "detect/options.hpp"
#include "graph/types.hpp"

namespace glouvain::core {

/// Degree-based work binning (§4.1). Bucket k holds vertices with
/// degree in (bounds[k-1], bounds[k]]; the final bucket is unbounded.
/// lanes[k] is the number of cooperating lanes assigned to each vertex
/// of that bucket, and buckets with index >= global_from place their
/// hash tables in "global memory" instead of the per-SM shared arena.
struct BucketScheme {
  std::vector<graph::EdgeIdx> bounds;
  std::vector<unsigned> lanes;
  std::size_t global_from = 0;

  std::size_t num_buckets() const noexcept { return lanes.size(); }

  /// The paper's 7 modularity-optimization buckets: degrees
  /// [1,4], [5,8], [9,16], [17,32] get 4/8/16/32 lanes (sub-warp
  /// groups, 2^{k+1} threads for group k=1..4); [33,84] a full warp;
  /// [85,319] a 128-thread block with the table in shared memory;
  /// >319 a block with the table in global memory.
  static BucketScheme paper_modopt() {
    return {{4, 8, 16, 32, 84, 319}, {4, 8, 16, 32, 32, 128, 128}, 6};
  }

  /// The paper's 3 aggregation buckets on community degree sums:
  /// [1,127] one warp (shared), [128,479] one block (shared),
  /// >=480 one block with the hash table in global memory.
  static BucketScheme paper_aggregation() {
    return {{127, 479}, {32, 128, 128}, 2};
  }

  /// Ablation scheme: no binning, one lane per vertex, shared tables
  /// with spill to global (the "node centered" strategy of prior work).
  static BucketScheme single_lane() { return {{}, {1}, 1}; }

  /// Ablation scheme: a full warp for every vertex regardless of degree.
  static BucketScheme warp_per_vertex() { return {{}, {32}, 1}; }

  /// Bucket index for a degree (0-based).
  std::size_t bucket_of(graph::EdgeIdx degree) const noexcept {
    std::size_t b = 0;
    while (b < bounds.size() && degree > bounds[b]) ++b;
    return b;
  }
};

/// When vertices observe each other's moves (§5 "relaxed" experiment).
enum class UpdateStrategy {
  /// Commit community updates after every degree bucket (the paper's
  /// default: between pure-synchronous and asynchronous).
  Bucketed,
  /// Commit only at the end of a full sweep over all buckets (the
  /// "relaxed" strategy; up to 10x slower per the paper).
  Relaxed,
};

/// The shared knobs (thresholds, max_levels, max_sweeps_per_level,
/// threads) live in the detect::Options base; only the GPU-style
/// backend's own machinery remains here.
struct Config : detect::Options {
  BucketScheme modopt_buckets = BucketScheme::paper_modopt();
  UpdateStrategy update = UpdateStrategy::Bucketed;
  /// Each degree bucket is processed in this many hash-partitioned
  /// sub-rounds, committing moves after each. 1 reproduces the paper's
  /// pseudocode exactly; >1 is the repo's one stand-in for the graph
  /// coloring of Lu et al. [16] (which the paper cites as the source
  /// of its move-control heuristics) and breaks the synchronous
  /// swap oscillation on uniform-degree graphs, where a single bucket
  /// holds nearly every vertex. Quality/cost measured by the
  /// `ablation_subrounds` bench; see DESIGN.md §6.1.
  unsigned commit_subrounds = 4;
  /// Evaluate the exact modularity inside optimize_phase (one O(|E|)
  /// pass up front plus one per surviving sweep — the oscillation
  /// catch of the sweep stopping rule, and the source of
  /// PhaseResult::modularity). The sharded engine disables it for its
  /// frontier rounds: there the round loop is the outer iteration,
  /// stopping on all-reduced move counts, and a per-phase O(|E|)
  /// evaluation would put the full edge set on the per-round critical
  /// path. With false, sweeps stop on the accumulated predicted gain
  /// alone (bounded by max_sweeps_per_level) and
  /// PhaseResult::modularity is 0.
  bool eval_phase_modularity = true;
};

/// THE single lowering from the canonical front-end surface
/// (detect::Options) to the GPU-style backend's Config. Every front
/// end — detect registry, svc, CLI, benches — goes through here
/// instead of assembling a core::Config field by field. `base`
/// carries the backend's own fields (bucket schemes, update strategy,
/// sub-rounds); its Options slice is overwritten.
inline Config to_config(const detect::Options& options, Config base = {}) {
  static_cast<detect::Options&>(base) = options;
  return base;
}

}  // namespace glouvain::core
