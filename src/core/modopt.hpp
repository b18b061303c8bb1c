// Modularity-optimization phase (Algorithms 1 and 2 of the paper) on
// the software SIMT device.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/rows.hpp"
#include "graph/csr.hpp"
#include "simt/device.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::core {

class Workspace;

/// Mutable per-phase device state (the GPU-resident arrays).
struct PhaseState {
  std::vector<graph::Weight> strengths;    ///< k_i
  std::vector<graph::Weight> loops;        ///< self-loop weight of i
  std::vector<graph::Community> community; ///< C
  std::vector<graph::Community> new_comm;  ///< newComm
  std::vector<graph::Weight> tot;          ///< a_c
  std::vector<graph::VertexId> com_size;   ///< |c| (for the singleton guard)
  /// Predicted modularity gain of the pending newComm move (0 when the
  /// vertex stays). Accumulated at commit time for the sweep stopping
  /// rule, so no extra O(|E|) pass per sweep is needed.
  std::vector<double> move_gain;

  /// Initialize for a fresh phase: every vertex its own community.
  /// Both overloads are one row-order pass that sums k_i and the loop
  /// weight in Csr::strength's order, so plain and compressed rows
  /// load bitwise-equal state.
  void reset(const graph::Csr& graph, simt::Device& device);
  void reset(ZRows& rows, simt::Device& device);

  /// Initialize from an existing partition (warm start): reset() then
  /// reseed(). `seed` holds one community label < graph.num_vertices()
  /// per vertex; labels need not be dense.
  void reset_from(const graph::Csr& graph, simt::Device& device,
                  std::span<const graph::Community> seed);

  /// Re-seed community/tot/|c| from `seed`, keeping the cached static
  /// strengths/loops of an earlier reset over the SAME graph. This is
  /// the sharded engine's exchange-round path: the local graph is
  /// unchanged between rounds, so only the O(n) label-derived state is
  /// rebuilt and the O(arcs) strength pass is skipped. A real resident
  /// device pays exactly this — halo updates, not a re-upload.
  void reseed(simt::Device& device, std::span<const graph::Community> seed);
};

/// Run one modularity-optimization phase: sweeps over the degree
/// buckets until the per-sweep modularity gain drops below `threshold`
/// (Algorithm 1). `state` must be reset() for `graph` first (or
/// reset_from() for a warm start); on return state.community holds the
/// computed assignment (labels are vertex ids, not renumbered).
///
/// Only the vertices in `active` are binned into the degree buckets and
/// may move (empty = every vertex); everything else keeps its
/// community. The stopping rule and the modularity evaluation still see
/// the whole graph, so the returned modularity is exact.
///
/// Every temporary (active list, binning order and its (bucket,
/// sub-round) groups, per-worker partials, prim scratch) comes from
/// `ws`, so once the
/// workspace has warmed up to the graph's size a phase performs zero
/// heap allocations. `recorder` (optional) receives the "modopt" span
/// tree — binning, per-bucket kernel launches, commits, modularity
/// evaluations — plus bucket-occupancy / moved-fraction counters.
PhaseResult optimize_phase(simt::Device& device, const graph::Csr& graph,
                           const Config& config, PhaseState& state,
                           std::span<const graph::VertexId> active,
                           double threshold, Workspace& ws,
                           obs::Recorder* recorder = nullptr);

/// The compressed-storage phase: same kernels templated over a ZRows
/// source (neighbour lists decoded per worker instead of read from
/// raw arrays). Partitions are bitwise-identical to the plain
/// overload's on the same graph.
PhaseResult optimize_phase(simt::Device& device, ZRows& rows,
                           const Config& config, PhaseState& state,
                           std::span<const graph::VertexId> active,
                           double threshold, Workspace& ws,
                           obs::Recorder* recorder = nullptr);

/// Modularity of the current assignment from the device arrays
/// (parallel; used for the sweep-termination test). The chunk
/// partials are drawn from `ws`'s scratch.
double device_modularity(simt::Device& device, const graph::Csr& graph,
                         const std::vector<graph::Community>& community,
                         const std::vector<graph::Weight>& tot, Workspace& ws);

/// Same, over a compressed row source.
double device_modularity(simt::Device& device, ZRows& rows,
                         const std::vector<graph::Community>& community,
                         const std::vector<graph::Weight>& tot, Workspace& ws);

}  // namespace glouvain::core
