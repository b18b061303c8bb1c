// Algorithm 1's outer loop, written once for every backend: optimize a
// level, contract it, and climb until a level gains less than t_final
// or its contraction no longer shrinks the graph (§5). t_bin only
// shortens phases: it is the threshold the optimize step gets while a
// level is larger than adaptive_limit, never the stopping rule.
//
// A backend supplies its two steps and keeps its own contraction, fold
// and spans; the loop owns the LevelReports, first_phase_teps, the
// per-level "level/vertices" and "level/arcs" counters, the recorder's
// level tag and result.modularity. Header-only, so seq and plm use it
// without linking the core library.
#pragma once

#include "core/common.hpp"
#include "detect/options.hpp"
#include "detect/result.hpp"
#include "obs/recorder.hpp"
#include "util/timer.hpp"

namespace glouvain::core {

/// Size of one level graph.
struct LevelSize {
  graph::VertexId vertices = 0;
  graph::EdgeIdx arcs = 0;
};

/// Climb the hierarchy from a level-0 graph of size `size`:
///   optimize(level, threshold) -> PhaseResult runs the level's phase;
///   contract(level) -> LevelSize contracts the level graph by that
///   phase's communities, folds them into `result` (community,
///   dendrogram) and returns the contracted graph's size.
template <typename Optimize, typename Contract>
void climb_levels(const detect::Options& options, LevelSize size,
                  detect::Result& result, obs::Recorder* rec,
                  Optimize&& optimize, Contract&& contract) {
  double prev_q = 0;
  for (int level = 0; level < options.max_levels; ++level) {
    if (rec) {
      rec->set_level(level);
      rec->count("level/vertices", static_cast<double>(size.vertices));
      rec->count("level/arcs", static_cast<double>(size.arcs));
    }
    LevelReport report;
    report.vertices = size.vertices;
    report.arcs = size.arcs;
    report.modularity_before = prev_q;

    util::Timer opt_timer;
    const PhaseResult phase =
        optimize(level, options.thresholds.threshold_for(size.vertices));
    report.optimize_seconds = opt_timer.seconds();
    report.iterations = phase.sweeps;
    report.modularity_after = phase.modularity;
    if (level == 0 && phase.first_sweep_seconds > 0) {
      result.first_phase_teps =
          static_cast<double>(size.arcs) / phase.first_sweep_seconds;
    }

    util::Timer agg_timer;
    size = contract(level);
    report.aggregate_seconds = agg_timer.seconds();
    result.levels.push_back(report);

    const bool converged =
        level > 0 && phase.modularity - prev_q < options.thresholds.t_final;
    prev_q = phase.modularity;
    if (converged || size.vertices >= report.vertices) break;
  }
  if (rec) rec->set_level(-1);
  result.modularity = prev_q;
}

}  // namespace glouvain::core
