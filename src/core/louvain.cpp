#include "core/louvain.hpp"

#include <optional>
#include <stdexcept>

#include "obs/recorder.hpp"
#include "simt/atomics.hpp"
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
  if (seed.size() != graph.num_vertices()) {
    throw std::invalid_argument("run_warm: seed size != num_vertices");
  }
  for (const Community c : seed) {
    if (c >= graph.num_vertices()) {
      throw std::invalid_argument("run_warm: seed label out of range");
    }
  }
  for (const graph::VertexId v : frontier) {
    if (v >= graph.num_vertices()) {
      throw std::invalid_argument("run_warm: frontier vertex out of range");
    }
  }
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

  const VertexId n0 = z0 ? z0->num_vertices() : graph->num_vertices();

  result.community.resize(n0);
  device_->for_each(n0, [&](std::size_t v) {
    result.community[v] = static_cast<Community>(v);
  });

  // Compressed level 0 (run_z): neighbour rows come from per-worker
  // decode cursors over the varint stream; levels >= 1 always run on
  // the (much smaller) contracted plain Csr.
  std::optional<ZRows> zrows;
  if (z0) {
    zrows.emplace(*z0, device_->workers());
    if (rec) {
      rec->count("zg/bytes_adj", static_cast<double>(z0->bytes_stream()));
      rec->count("zg/bytes_index", static_cast<double>(z0->bytes_index()));
      rec->count("zg/plain_bytes", static_cast<double>(z0->plain_bytes()));
      const double packed =
          static_cast<double>(z0->bytes_stream() + z0->bytes_index());
      if (packed > 0) {
        rec->count("zg/ratio",
                   static_cast<double>(z0->plain_bytes()) / packed);
      }
    }
  }

  // No level-0 copy: the input graph is only ever read. Contracted
  // levels are owned here and recycled into the workspace pools when
  // the next level replaces them — after level 1 the loop's CSR arrays
  // cycle through the same heap blocks (cudaMalloc-once discipline).
  const Csr* current = graph;
  Csr owned;
  double prev_q = -1.0;
  std::uint64_t prev_spills = 0;

  for (int level = 0; level < config_.max_levels; ++level) {
    if (rec) rec->set_level(level);
    const bool z_level = z0 != nullptr && level == 0;
    LevelReport report;
    report.vertices = z_level ? z0->num_vertices() : current->num_vertices();
    report.arcs = z_level ? z0->num_arcs() : current->num_arcs();
    report.modularity_before = prev_q < -0.5 ? 0 : prev_q;

    const double threshold = config_.thresholds.threshold_for(report.vertices);

    // Level 0 of a warm run starts from the seeded partition and sweeps
    // only the frontier; every later level is a normal cold phase on
    // the (much smaller) contracted graph. The phase state is a member:
    // reset() only rewrites, its arrays stay at their high-water mark.
    // A caller's step (run_levels) replaces all of this on every level.
    util::Timer opt_timer;
    LevelPhase lp;
    if (step) {
      lp = (*step)(level, *current, threshold);
    } else if (z_level) {
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
    const PhaseResult& phase = lp.phase;
    const std::span<const Community> labels = lp.labels;
    report.optimize_seconds = opt_timer.seconds();
    report.iterations = phase.sweeps;
    report.modularity_after = phase.modularity;

    if (level == 0) {
      result.first_phase_teps = phase.first_sweep_seconds > 0
          ? static_cast<double>(report.arcs) / phase.first_sweep_seconds
          : 0;
    }

    // Termination always checks against the FINE threshold: t_bin only
    // cuts phases short, it must not end the whole hierarchy early.
    const bool converged =
        prev_q >= -0.5 && (phase.modularity - prev_q) < config_.thresholds.t_final;

    util::Timer agg_timer;
    AggregationResult agg =
        z_level ? aggregate(*device_, *zrows, config_, labels, ws_, rec)
                : aggregate(*device_, *current, config_, labels, ws_, rec);

    // Fold this level into the original-vertex mapping:
    // community(orig) = new_id[ phase community of current vertex ].
    {
      obs::Span fold_span(rec, "fold");
      const VertexId cn = static_cast<VertexId>(report.vertices);
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
    report.aggregate_seconds = agg_timer.seconds();
    result.levels.push_back(report);

    if (rec) {
      rec->count("level/vertices", static_cast<double>(report.vertices));
      rec->count("level/arcs", static_cast<double>(report.arcs));
      const std::uint64_t spills = device_->total_spills();
      rec->count("level/shared_spills",
                 static_cast<double>(spills - prev_spills));
      prev_spills = spills;
    }

    const bool shrunk =
        agg.contracted.num_vertices() < static_cast<VertexId>(report.vertices);
    prev_q = phase.modularity;
    // Retire the previous owned level into the recycling pools before
    // adopting the new one (never the caller's input graph).
    Csr next = std::move(agg.contracted);
    if (owned.num_vertices() > 0) ws_.recycle(std::move(owned));
    owned = std::move(next);
    current = &owned;
    if (converged || !shrunk) break;
  }
  if (rec) rec->set_level(-1);
  if (rec && zrows) {
    rec->count("zg/rows_decoded", static_cast<double>(zrows->rows_decoded()));
    rec->count("zg/reseeks", static_cast<double>(zrows->reseeks()));
  }

  result.modularity = prev_q;
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
