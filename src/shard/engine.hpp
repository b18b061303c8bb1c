// The sharded multi-device Louvain driver (DESIGN.md §14): k edge-cut
// shards, per-shard move phases on the simt device, inter-round halo
// exchange of ghost community/tot, and a global aggregation that
// rebuilds the shards per level. The level hierarchy itself is
// core::Louvain's loop (run_levels); the engine supplies only each
// level's optimize step.
//
// Execution model: in the default sequential mode the k "devices" are
// simulated sequentially on a single warm simt::Device that uses the
// full worker pool for each shard (Gauss-Seidel rounds: later shards of
// a round see earlier shards' moves). With Options::concurrent_shards the
// rounds become BARRIER-SYNCHRONIZED JACOBI rounds on real host
// concurrency: each round leases up to k devices from a
// simt::DevicePool, every shard sweeps as a task on its leased device
// against the round-start snapshot of the global labels/tots, move
// proposals buffer lane-locally, and the barrier commits them in
// gain-sorted order, RE-DECIDING each proposer's destination against
// the partially-committed view with the core gain rule (cross-shard
// swap/overcrowd oscillations are redirected or dropped, never
// published) before running the halo exchange — deterministic for a
// given (graph, options) no matter how many devices the pool grants
// (DESIGN.md §14, "device placement and leasing"). In sequential mode
// wall clock measures TOTAL work; the distributed figure of merit is
// the modeled device-parallel critical path
//
//     Σ_rounds ( max_shard(marshal + phase) + exchange )
//
// emitted twice: as measured seconds (shard/critical_ns — a noisy
// diagnostic on a timeshared CPU) and as deterministic work units
// (shard/critical_work, see Result::critical_work — what
// bench/shard_scale gates monotone-decreasing in k). DESIGN.md §14
// maps each piece to the real multi-GPU deployment (one device per
// shard, NCCL halo messages, an all-reduce for tot).
//
// Semantics: every shard's local graph carries a phantom "rest of
// world" self-loop so its total_weight() equals the GLOBAL 2m, and
// frozen ghost/replica slots are seeded with exchanged global labels
// and community totals — so local move gains equal global gains and
// per-shard quality tracks the sequential algorithm (the ≥98% gate).
// With shards <= 1 (or once a contracted level drops below
// min_shard_vertices) a level runs core::Louvain's cold step verbatim
// on the unpartitioned graph: a k=1 run is bitwise-identical to the
// "core" backend.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/louvain.hpp"
#include "shard/partition.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::simt {
class DevicePool;
class DeviceLease;
}

namespace glouvain::shard {

/// The shared knobs live in the detect::Options base (shards,
/// partition, partition_seed, thresholds, threads, device, ...); only
/// the shard machinery remains here. The per-shard phases run
/// core::to_config() of this Options slice.
struct Config : detect::Options {
  /// Degree above which a vertex is a replicated hub (hubrep only).
  graph::EdgeIdx hub_degree = 319;
  /// Contracted levels smaller than this collapse to a single shard
  /// (the core-identical path doubles as the finishing pass).
  graph::VertexId min_shard_vertices = 1u << 13;
  /// Device pool for concurrent rounds (Options::concurrent_shards):
  /// the svc service injects its shared pool; null makes the engine
  /// build a private one (shards-wide, splitting Options::threads) on
  /// the first concurrent level. Ignored in sequential mode.
  std::shared_ptr<simt::DevicePool> device_pool;
  /// Capacity of the process-wide partition-plan cache, applied by the
  /// next Engine construction/set_config; 0 disables plan caching.
  std::size_t plan_cache_capacity = 8;
};

/// THE lowering from the canonical front-end surface, mirroring
/// core::to_config(): the Options slice of `base` is overwritten,
/// extension fields survive.
inline Config to_config(const detect::Options& options, Config base = {}) {
  static_cast<detect::Options&>(base) = options;
  return base;
}

struct Result : detect::Result {
  /// Partition diagnostics of level 0 (default-initialized when level
  /// 0 ran unsharded).
  PlanStats partition;
  /// Effective shard count at level 0 (adaptive: may be below
  /// Config::shards on small inputs).
  unsigned shards_used = 1;
  /// Total move/exchange rounds across all sharded levels.
  int exchange_rounds = 0;
  /// Modeled device-parallel critical path across all levels, seconds
  /// (see header comment; also the shard/critical_ns counters).
  /// Measured on the simulating CPU, so noisy — reported as a
  /// diagnostic; gates use critical_work.
  double critical_seconds = 0;
  /// The same critical path in DETERMINISTIC work units (arc
  /// traversals + linear marshal/exchange terms): per round, the
  /// busiest shard's sweeps × active arcs + seed marshal + state
  /// upload (round 0) or reseed, plus the O(n) tot all-reduce; plus
  /// one O(arcs) modularity evaluation per level. The unsharded path
  /// is charged (1 + sweeps) × arcs per level (upload + move sweeps —
  /// its per-sweep modularity evaluations are NOT charged, which
  /// biases the k = 1 baseline LOW, i.e. against the shards). Wall
  /// time on this one-CPU simulator folds in thread-pool launch
  /// overhead a real device does not pay per element, and is too
  /// noisy to gate; identical runs produce identical critical_work,
  /// so bench/shard_scale gates its monotone decrease in k exactly.
  double critical_work = 0;
  /// Concurrent mode: the widest device grant any level's lease got
  /// from the pool (1 = fully degraded, or sequential mode).
  unsigned devices_used = 1;
  /// Partition-plan cache traffic of this run (also the obs counters
  /// cache/plan_hit / cache/plan_miss).
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
};

/// A warm sharded runner: owns one core::Louvain whose level loop,
/// simt device and workspace serve every shard of every run (the svc
/// device pool keeps Engines warm exactly like core::Louvain
/// instances). Not thread-safe.
class Engine {
 public:
  explicit Engine(const Config& config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Result run(const graph::Csr& graph, obs::Recorder* recorder = nullptr);

  /// Replace the configuration, keeping the device warm. The device
  /// keeps its shape (as core::Louvain::set_config).
  void set_config(const Config& config);

  const Config& config() const noexcept { return config_; }

 private:
  /// Effective shard count for a level of n vertices.
  unsigned shards_for(graph::VertexId n) const noexcept;

  /// Fetch (or build and insert) the partition plan of `graph` through
  /// the process-wide plan cache; with caching disabled, build it on the
  /// engine's device without computing its key.
  std::shared_ptr<const Plan> plan_for(const graph::Csr& graph, unsigned k,
                                       obs::Recorder* rec, Result& result);

  /// The optimize step of a level cut into k > 1 shards: move/exchange
  /// rounds until migration dries up, then one global modularity
  /// evaluation. Returns the exchanged labels for core's aggregation.
  core::LevelPhase sharded_level(int level, const graph::Csr& current,
                                 unsigned k, double threshold, Result& result,
                                 obs::Recorder* rec);

  /// Lazily built pool for concurrent rounds (Config::device_pool when
  /// injected, else engine-owned).
  simt::DevicePool& pool();

  /// Everything the sharded levels keep across rounds, levels and runs
  /// (engine.cpp): the global view and its round stamps, one resident
  /// phase state per shard, one marshal lane per leased device (lane 0
  /// also serves the sequential rounds), the move buffers and the
  /// barrier's commit scratch.
  struct State;

  Config config_;
  /// The level loop, with the device, workspace and phase state of the
  /// unsharded levels and the sequential shard sweeps.
  core::Louvain core_;
  std::unique_ptr<State> state_;
  std::shared_ptr<simt::DevicePool> pool_;
};

/// One-shot convenience wrapper.
Result louvain(const graph::Csr& graph, const Config& config = {},
               obs::Recorder* recorder = nullptr);

}  // namespace glouvain::shard
