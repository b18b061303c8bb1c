// Public entry point of the library: the GPU-style Louvain method of
// Naim, Manne, Halappanavar & Tumeo (IPDPS 2017) on the software SIMT
// device. Usage:
//
//   glouvain::core::Louvain runner;                 // default config
//   auto result = runner.run(graph);
//   // result.community[v], result.modularity, result.levels, ...
//
// A Louvain instance owns its device (thread pool + shared-memory
// arenas) and can be reused across runs. For one-off calls the free
// function louvain() constructs a temporary instance. Pass an
// obs::Recorder to run() for the per-level phase/kernel span tree.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "core/aggregate.hpp"
#include "core/config.hpp"
#include "core/modopt.hpp"
#include "core/workspace.hpp"
#include "detect/result.hpp"
#include "graph/csr.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::core {

/// The one result type lives in detect/result.hpp; these aliases keep
/// the core::Result spelling of tests, benches and the svc cache.
using DeviceStats = detect::DeviceStats;
using Result = detect::Result;

/// One level's optimize step as the level loop consumes it: the phase
/// outcome and the labels aggregate() contracts the level graph by.
struct LevelPhase {
  PhaseResult phase;
  std::span<const graph::Community> labels;
};

/// Optimizes the level graph `graph` of hierarchy level `level` under
/// the loop's `threshold`. The returned labels must stay valid until
/// the step is called again or the loop returns.
using LevelStep = std::function<LevelPhase(int level, const graph::Csr& graph,
                                           double threshold)>;

class Louvain {
 public:
  explicit Louvain(const Config& config = {});
  ~Louvain();

  Louvain(const Louvain&) = delete;
  Louvain& operator=(const Louvain&) = delete;

  /// Run the full multi-level pipeline on `graph`. `recorder` (optional)
  /// receives per-level modopt/aggregate span trees and counters.
  Result run(const graph::Csr& graph, obs::Recorder* recorder = nullptr);

  /// Compressed-storage run: level 0 decodes neighbour rows from the
  /// varint-compressed `z` instead of reading a plain Csr; the much
  /// smaller contracted levels run uncompressed as usual. Partitions
  /// are bitwise-identical to run() on the graph `z` encodes.
  Result run_z(const zg::ZCsr& z, obs::Recorder* recorder = nullptr);

  /// Warm-start run (the dynamic-graph path): level 0 starts from
  /// `seed` (one label < num_vertices per vertex) and re-optimizes only
  /// `frontier` (empty = every vertex); subsequent levels run the
  /// normal contraction hierarchy. The returned modularity is exact
  /// for the final partition, directly comparable to run()'s.
  Result run_warm(const graph::Csr& graph,
                  std::span<const graph::Community> seed,
                  std::span<const graph::VertexId> frontier,
                  obs::Recorder* recorder = nullptr);

  /// run()'s level loop (climb_levels, core/levels.hpp) with the
  /// optimize step supplied by the caller (the shard engine's sharded
  /// rounds). Core keeps its contract step: aggregation, the fold into
  /// `result.community`, the dendrogram and level recycling. Fields of
  /// a type derived from Result are the step's to fill.
  void run_levels(const graph::Csr& graph, const LevelStep& step,
                  Result& result, obs::Recorder* recorder = nullptr);

  /// run()'s optimize step on one level graph: reset the phase state
  /// to singletons and sweep every vertex. The labels live in this
  /// instance's phase state.
  LevelPhase cold_phase(const graph::Csr& graph, double threshold,
                        obs::Recorder* recorder = nullptr);

  /// Run a single modularity-optimization phase starting from the
  /// all-singletons partition (exposed for tests and benches).
  PhaseResult run_phase(const graph::Csr& graph,
                        std::vector<graph::Community>& community,
                        double threshold);

  /// Replace the algorithm configuration, keeping the device (thread
  /// pool + arenas) warm. The device keeps the `threads` and `device`
  /// it was built with — construct a fresh Louvain to change them.
  void set_config(const Config& config);

  const Config& config() const noexcept { return config_; }
  simt::Device& device() noexcept { return *device_; }

  /// The instance's workspace arena (slot buffers, prim scratch,
  /// recycled vectors). Warm across levels, sweeps and run() calls —
  /// the cudaMalloc-once discipline of the paper's device buffers.
  Workspace& workspace() noexcept { return ws_; }

 private:
  /// Core's optimize and contract steps under climb_levels. Exactly
  /// one of `graph` / `z0` is non-null: z0 selects the compressed
  /// level-0 path, after which the loop continues on the contracted
  /// plain Csr either way. A non-null `step` replaces the optimize step
  /// of every level (plain input, cold only).
  void run_impl(const graph::Csr* graph, const zg::ZCsr* z0,
                std::span<const graph::Community> seed,
                std::span<const graph::VertexId> frontier, bool warm,
                const LevelStep* step, Result& result,
                obs::Recorder* recorder);

  Config config_;
  std::unique_ptr<simt::Device> device_;
  /// Persistent per-run state: the device arrays grow to the level-0
  /// graph once and are reused by every later level and every later
  /// run on this instance.
  Workspace ws_;
  PhaseState state_;
};

/// One-shot convenience wrapper.
Result louvain(const graph::Csr& graph, const Config& config = {},
               obs::Recorder* recorder = nullptr);

/// One-shot convenience wrapper over Louvain::run_z.
Result louvain_z(const zg::ZCsr& z, const Config& config = {},
                 obs::Recorder* recorder = nullptr);

}  // namespace glouvain::core
