// Types shared by every Louvain implementation in the library (the
// sequential baseline, the shared-memory PLM comparator, and the
// GPU-style core). Header-only so lower layers can include it without
// a link dependency on the core library.
#pragma once

#include "graph/types.hpp"

namespace glouvain {

/// The paper's adaptive threshold schedule (§5): a coarse threshold
/// t_bin while the (current, contracted) graph is larger than
/// `adaptive_limit` vertices, then the fine t_final. The same schedule
/// is reused by the "adaptive sequential" baseline of Figure 4.
struct ThresholdSchedule {
  double t_bin = 1e-2;
  double t_final = 1e-6;
  graph::VertexId adaptive_limit = 100'000;
  /// false = always use t_final (the original sequential behaviour).
  bool adaptive = true;

  double threshold_for(graph::VertexId current_vertices) const noexcept {
    return (adaptive && current_vertices > adaptive_limit) ? t_bin : t_final;
  }
};

/// Per-level (per-stage, in the paper's wording) instrumentation used
/// by the Figure 5/6 breakdown benches.
struct LevelReport {
  graph::VertexId vertices = 0;     ///< vertices entering this level
  graph::EdgeIdx arcs = 0;          ///< directed arcs entering this level
  int iterations = 0;               ///< modularity-optimization sweeps
  double modularity_before = 0;
  double modularity_after = 0;
  double optimize_seconds = 0;      ///< phase 1 time
  double aggregate_seconds = 0;     ///< phase 2 time
};

/// What one modularity-optimization phase reports to the level loop.
struct PhaseResult {
  int sweeps = 0;
  double modularity = 0;
  /// Wall time of the phase's first sweep: the TEPS denominator.
  double first_sweep_seconds = 0;
};

}  // namespace glouvain
