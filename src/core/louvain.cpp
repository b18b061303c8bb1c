#include "core/louvain.hpp"

#include <optional>

#include "core/levels.hpp"
#include "obs/recorder.hpp"
#include "util/timer.hpp"

namespace glouvain::core {

namespace {
using graph::Community;
using graph::Csr;
using graph::VertexId;
}  // namespace

Louvain::Louvain(const Config& config)
    : config_(config),
      device_(std::make_unique<simt::Device>(simt::DeviceConfig{
          .worker_threads = config.threads, .backend = config.device})) {}

Louvain::~Louvain() = default;

void Louvain::set_config(const Config& config) { config_ = config; }

PhaseResult Louvain::run_phase(const Csr& graph,
                               std::vector<Community>& community,
                               double threshold) {
  PhaseState state;
  state.reset(graph, *device_);
  PhaseResult pr =
      optimize_phase(*device_, graph, config_, state,
                     std::span<const graph::VertexId>{}, threshold, ws_);
  community = std::move(state.community);
  return pr;
}

LevelPhase Louvain::cold_phase(const Csr& graph, double threshold,
                               obs::Recorder* rec) {
  state_.reset(graph, *device_);
  const PhaseResult phase =
      optimize_phase(*device_, graph, config_, state_,
                     std::span<const graph::VertexId>{}, threshold, ws_, rec);
  return {phase, state_.community};
}

Result Louvain::run(const Csr& graph, obs::Recorder* rec) {
  Result result;
  run_impl(&graph, nullptr, {}, {}, /*warm=*/false, nullptr, result, rec);
  return result;
}

Result Louvain::run_z(const zg::ZCsr& z, obs::Recorder* rec) {
  Result result;
  run_impl(nullptr, &z, {}, {}, /*warm=*/false, nullptr, result, rec);
  return result;
}

void Louvain::run_levels(const Csr& graph, const LevelStep& step,
                         Result& result, obs::Recorder* rec) {
  run_impl(&graph, nullptr, {}, {}, /*warm=*/false, &step, result, rec);
}

Result Louvain::run_warm(const Csr& graph, std::span<const Community> seed,
                         std::span<const graph::VertexId> frontier,
                         obs::Recorder* rec) {
  detect::check_warm_start(graph.num_vertices(), seed, frontier);
  Result result;
  run_impl(&graph, nullptr, seed, frontier, /*warm=*/true, nullptr, result,
           rec);
  return result;
}

void Louvain::run_impl(const Csr* graph, const zg::ZCsr* z0,
                       std::span<const Community> seed,
                       std::span<const graph::VertexId> frontier, bool warm,
                       const LevelStep* step, Result& result,
                       obs::Recorder* rec) {
  util::Timer total_timer;
  device_->clear_spills();

  const LevelSize size0 = z0 ? LevelSize{z0->num_vertices(), z0->num_arcs()}
                             : LevelSize{graph->num_vertices(),
                                         graph->num_arcs()};
  result.community.resize(size0.vertices);
  device_->for_each(size0.vertices, [&](std::size_t v) {
    result.community[v] = static_cast<Community>(v);
  });

  // Compressed level 0 (run_z): neighbour rows come from per-worker
  // decode cursors over the varint stream; levels >= 1 always run on
  // the (much smaller) contracted plain Csr.
  std::optional<ZRows> zrows;
  if (z0) {
    zrows.emplace(*z0, device_->workers());
    count_storage(*z0, rec);
  }

  // No level-0 copy: the input graph is only ever read. Contracted
  // levels are owned here and recycled into the workspace pools when
  // the next level replaces them — after level 1 the loop's CSR arrays
  // cycle through the same heap blocks (cudaMalloc-once discipline).
  const Csr* current = graph;
  Csr owned;
  std::span<const Community> labels;
  std::uint64_t prev_spills = 0;

  // Level 0 of a warm run starts from the seeded partition and sweeps
  // only the frontier; every later level is a normal cold phase on
  // the (much smaller) contracted graph. The phase state is a member:
  // reset() only rewrites, its arrays stay at their high-water mark.
  // A caller's step (run_levels) replaces all of this on every level.
  const auto optimize = [&](int level, double threshold) {
    LevelPhase lp;
    if (step) {
      lp = (*step)(level, *current, threshold);
    } else if (zrows && level == 0) {
      // The reset pass is one full sequential decode of the stream
      // (per-worker chunks), so its wall time is the decode figure.
      util::Timer decode_timer;
      state_.reset(*zrows, *device_);
      if (rec) rec->count("zg/decode_ns", decode_timer.seconds() * 1e9);
      lp = {optimize_phase(*device_, *zrows, config_, state_,
                           std::span<const graph::VertexId>{}, threshold, ws_,
                           rec),
            state_.community};
    } else if (warm && level == 0) {
      state_.reset_from(*current, *device_, seed);
      lp = {optimize_phase(*device_, *current, config_, state_, frontier,
                           threshold, ws_, rec),
            state_.community};
    } else {
      lp = cold_phase(*current, threshold, rec);
    }
    labels = lp.labels;
    return lp.phase;
  };

  const auto contract = [&](int level) {
    const bool z_level = zrows && level == 0;
    AggregationResult agg =
        z_level ? aggregate(*device_, *zrows, labels, ws_, rec)
                : aggregate(*device_, *current, labels, ws_, rec);

    // Fold this level into the original-vertex mapping:
    // community(orig) = new_id[ phase community of current vertex ].
    {
      obs::Span fold_span(rec, "fold");
      const VertexId cn =
          z_level ? zrows->num_vertices() : current->num_vertices();
      auto dense = ws_.buffer<Community>(Workspace::Slot::kFoldDense, cn);
      device_->for_each(cn, [&](std::size_t v) {
        dense[v] = agg.new_id[labels[v]];
      });
      // In-place composition (flatten allocated a fresh vector per
      // level): community[orig] indexes dense, never itself.
      device_->for_each(result.community.size(), [&](std::size_t v) {
        result.community[v] = dense[result.community[v]];
      });
      result.dendrogram.push_level(
          std::vector<Community>(dense.begin(), dense.end()));
    }
    ws_.put(std::move(agg.new_id));

    if (rec) {
      const std::uint64_t spills = device_->total_spills();
      rec->count("level/shared_spills",
                 static_cast<double>(spills - prev_spills));
      prev_spills = spills;
    }
    // Retire the previous owned level into the recycling pools before
    // adopting the new one (never the caller's input graph).
    Csr next = std::move(agg.contracted);
    if (owned.num_vertices() > 0) ws_.recycle(std::move(owned));
    owned = std::move(next);
    current = &owned;
    return LevelSize{owned.num_vertices(), owned.num_arcs()};
  };

  climb_levels(config_, size0, result, rec, optimize, contract);
  // The last contracted level feeds the next run's aggregations too.
  if (owned.num_vertices() > 0) ws_.recycle(std::move(owned));
  if (rec && zrows) {
    rec->count("zg/rows_decoded", static_cast<double>(zrows->rows_decoded()));
    rec->count("zg/reseeks", static_cast<double>(zrows->reseeks()));
  }

  result.total_seconds = total_timer.seconds();
  result.device.shared_spills = device_->total_spills();
  result.device.workers = device_->workers();
}

Result louvain(const Csr& graph, const Config& config, obs::Recorder* rec) {
  Louvain runner(config);
  return runner.run(graph, rec);
}

Result louvain_z(const zg::ZCsr& z, const Config& config, obs::Recorder* rec) {
  Louvain runner(config);
  return runner.run_z(z, rec);
}

}  // namespace glouvain::core
