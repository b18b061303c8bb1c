// The shared algorithm options every detection backend understands —
// the consolidation of the former near-duplicate core::Config /
// seq::Config / plm::Config common fields. Backend-specific knobs live
// in extension structs that INHERIT from Options (core::Config,
// seq::Config, plm::Config are now thin derived types), so existing
// call sites compile unchanged while detect::Detector::run() can slice
// a uniform Options into any backend. Header-only and dependency-free
// below every backend.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/common.hpp"
#include "simt/backend.hpp"

namespace glouvain::detect {

/// Warm-start request: seed the level-0 partition from a previous run
/// instead of all-singletons and re-optimize only `frontier` before
/// falling through to the normal aggregation hierarchy. Produced by the
/// stream subsystem (stream::Session passes a delta's touched
/// endpoints as the frontier); honored by the "core" and "seq"
/// backends, ignored — a full cold run, never a stale result — by
/// backends without a warm path.
struct WarmStart {
  /// Previous partition: one dense label (< num_vertices) per vertex.
  std::vector<graph::Community> seed;
  /// Vertices the level-0 sweep may move; empty = every vertex (a full
  /// re-optimization that still skips the singleton bootstrap).
  std::vector<graph::VertexId> frontier;
};

/// The warm-start contract every warm path checks before it runs:
/// throws std::invalid_argument unless `seed` holds one label < n per
/// vertex of an n-vertex graph and every frontier vertex is < n.
inline void check_warm_start(graph::VertexId n,
                             std::span<const graph::Community> seed,
                             std::span<const graph::VertexId> frontier) {
  if (seed.size() != n) {
    throw std::invalid_argument("warm start: seed size != num_vertices");
  }
  for (const graph::Community c : seed) {
    if (c >= n) throw std::invalid_argument("warm start: seed label >= n");
  }
  for (const graph::VertexId v : frontier) {
    if (v >= n) throw std::invalid_argument("warm start: frontier vertex >= n");
  }
}

/// Graph partition strategy of the sharded multi-device backend
/// ("shard"): how vertices are assigned to the k edge-cut shards.
/// Ignored by every other backend.
enum class Partition {
  /// Contiguous vertex-id ranges balanced by arc count.
  kBlock,
  /// Hash-based assignment (the paper's "initial random vertex
  /// partitioning"; the conclusion's coarse-grained observation).
  kRandom,
  /// Arc-balanced block ranges for low-degree vertices; high-degree
  /// hubs (degree above the paper's top modopt bucket bound) are
  /// placed with the plurality of their neighbours and row-replicated
  /// into every shard they touch (the vertex-cut mirror idiom).
  kHubRep,
};

constexpr const char* partition_name(Partition p) noexcept {
  switch (p) {
    case Partition::kBlock: return "block";
    case Partition::kRandom: return "random";
    default: return "hubrep";
  }
}

/// Parse a partition-strategy name; returns false (and leaves `out`
/// alone) on an unknown name.
inline bool parse_partition(std::string_view name, Partition& out) noexcept {
  if (name == "block") { out = Partition::kBlock; return true; }
  if (name == "random") { out = Partition::kRandom; return true; }
  if (name == "hubrep") { out = Partition::kHubRep; return true; }
  return false;
}

/// Algorithm options shared by every backend. The adjacency storage is
/// picked by the entry point instead: Detector::run reads a plain Csr,
/// Detector::run_z compressed rows (DESIGN.md §12).
struct Options {
  /// The paper's adaptive t_bin/t_final schedule (§5).
  ThresholdSchedule thresholds;
  int max_levels = 64;
  int max_sweeps_per_level = 1000;
  /// Worker threads of the simt device for `core` and `shard` (0 =
  /// hardware concurrency). `seq` and `plm` ignore it: plm always runs
  /// on simt::ThreadPool::global(). svc::Service pins it service-wide
  /// (ServiceConfig::options.threads), per-job overrides included.
  unsigned threads = 0;
  /// Null = cold start. Shared so copying Options never copies the
  /// O(n) seed/frontier arrays.
  std::shared_ptr<const WarmStart> warm_start;
  /// Device substrate for the GPU-style backend: kScalar is the
  /// lockstep interpreter (bitwise-stable partitions), kVector adds the
  /// AVX2 modularity row sum, kAuto picks vector iff the CPU supports
  /// it.
  /// Ignored by backends without a simt device (seq, plm).
  simt::Backend device = simt::Backend::kAuto;
  /// Sharded backend only: number of edge-cut shards (0 and 1 both
  /// mean a single shard, which is bitwise-identical to "core").
  unsigned shards = 1;
  /// Sharded backend only: how vertices are assigned to shards.
  Partition partition = Partition::kHubRep;
  /// Seed of the random/hubrep partitioners. Folded into svc job keys
  /// (a different partition is a different computation).
  std::uint64_t partition_seed = 1;
  /// Sharded backend only: run each round's k shard sweeps
  /// CONCURRENTLY on devices leased from a pool (barrier-synchronized
  /// Jacobi rounds — every shard sees the round-start labels, moves
  /// publish at the barrier) instead of sequentially on one device
  /// (Gauss-Seidel rounds). Results are deterministic for a given
  /// (graph, options) regardless of how many devices the pool grants;
  /// they differ from the sequential schedule, so the flag is folded
  /// into svc job keys.
  bool concurrent_shards = false;
};

}  // namespace glouvain::detect
