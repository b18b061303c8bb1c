// Sequential Louvain method — a faithful re-implementation of the
// original algorithm of Blondel, Guillaume, Lambiotte & Lefebvre
// (2008), the baseline the paper's speedups are measured against
// (Table 1 column 4, Figure 3). With `thresholds.adaptive = true` it
// becomes the "adaptive sequential algorithm" of Figure 4, which uses
// the coarse t_bin threshold on large intermediate graphs.
#pragma once

#include <span>

#include "core/common.hpp"
#include "detect/options.hpp"
#include "detect/result.hpp"
#include "graph/csr.hpp"
#include "zg/zcsr.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::seq {

/// All knobs are the shared detect::Options; the sequential baseline
/// defaults to the exact (non-adaptive) threshold schedule and ignores
/// Options::threads.
struct Config : detect::Options {
  Config() { thresholds.adaptive = false; }
};

/// Full multi-level run (core::climb_levels over seq's phase and
/// core::contract_reference). `recorder` (optional) receives per-level
/// "modopt"/"aggregate" spans comparable with the core backend's.
detect::Result louvain(const graph::Csr& graph, const Config& config = {},
                       obs::Recorder* recorder = nullptr);

/// Compressed-storage run: level 0 streams neighbour rows from the
/// varint-encoded `z` through a sequential decode cursor instead of a
/// plain Csr; the (much smaller) contracted levels run plain as usual.
/// Partitions are bitwise-identical to louvain() on the graph `z`
/// encodes.
detect::Result louvain_z(const zg::ZCsr& z, const Config& config = {},
                         obs::Recorder* recorder = nullptr);

/// Warm-start run (the dynamic-graph path): level 0 starts from `seed`
/// (one label < num_vertices per vertex, need not be dense) and sweeps
/// only the vertices in `active` (empty = all of them); later levels
/// run the normal contraction hierarchy. The returned modularity is
/// exact for the final partition, comparable to louvain()'s. Throws
/// std::invalid_argument on a malformed seed or frontier
/// (detect::check_warm_start).
detect::Result louvain_warm(const graph::Csr& graph,
                            std::span<const graph::Community> seed,
                            std::span<const graph::VertexId> active,
                            const Config& config = {},
                            obs::Recorder* recorder = nullptr);

/// One modularity-optimization phase on `graph` starting from the
/// all-singletons partition; `community` receives the result (dense
/// labels NOT renumbered — labels are community representatives).
/// Returns the sweeps, final modularity and first-sweep time. Exposed
/// for unit tests.
PhaseResult optimize_phase(const graph::Csr& graph,
                           std::vector<graph::Community>& community,
                           double threshold, int max_sweeps,
                           obs::Recorder* recorder = nullptr);

}  // namespace glouvain::seq
