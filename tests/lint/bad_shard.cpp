// Lint fixture for the shard-ghost and shard-barrier rules:
// cross-shard reads and writes that index the exchanged label/total
// arrays directly instead of going through the GlobalState accessors
// (src/shard/halo.hpp), and cross-shard mutations issued from inside a
// run_lanes() fan-out body instead of being buffered for the join
// barrier. It is intentionally NOT part of any build target — it
// exists so the `glint_fixture_shard` ctest (run with
// --expect-violations) fails if glint rots and stops catching these.
// The ctest pins the total: 6 findings.
//
// Expected findings:
//   shard-ghost    the three direct element accesses below
//   shard-barrier  the three in-lane mutations in bad_jacobi_round
// The suppressed read, the whole-vector pass, and the read-only lane
// body at the end must NOT be reported.

#include <span>
#include <vector>

#include "shard/halo.hpp"

namespace glouvain::fixture {

inline graph::Community bad_ghost_read(const shard::GlobalState& gs,
                                       graph::VertexId v) {
  return gs.labels_raw[v];  // shard-ghost: use gs.community_of(v)
}

inline void bad_ghost_write(shard::GlobalState& gs, graph::VertexId v,
                            graph::Community c) {
  gs.labels_raw[v] = c;  // shard-ghost: use gs.store_label / apply_move
}

inline graph::Weight bad_tot_read(const shard::GlobalState& gs,
                                  graph::Community c) {
  return gs.tot_raw[c];  // shard-ghost: use gs.tot_of(c)
}

inline graph::Community tolerated_read(const shard::GlobalState& gs,
                                       graph::VertexId v) {
  return gs.labels_raw[v];  // glint: allow(shard-ghost)
}

/// Passing the whole array to a reduction is the blessed bulk path
/// (device_modularity takes the full span) — the rule only flags
/// element access, so this must stay clean.
inline std::span<const graph::Community> bulk_view(
    const shard::GlobalState& gs) {
  return gs.labels_raw;
}

template <typename Fn>
void run_lanes(unsigned lanes, Fn&& fn);  // stand-in for the engine's

/// A Jacobi round that publishes from inside the fan-out instead of
/// buffering proposals for the barrier: every mutation here is a data
/// race between lanes (and a phantom halo message on real devices).
inline void bad_jacobi_round(shard::GlobalState& gs,
                             std::span<const graph::Weight> strengths,
                             std::vector<int>& last_moved,
                             std::vector<int>& dirty_round, int round) {
  run_lanes(2, [&](unsigned lane) {
    const graph::VertexId v = lane;
    gs.apply_move(v, 0, strengths);  // shard-barrier: buffer a proposal
    last_moved[v] = round;           // shard-barrier: stamp at the barrier
    dirty_round[v + 1] = round;      // shard-barrier: stamp at the barrier
  });
}

/// Reading the round-start snapshot from a lane is the whole point of
/// Jacobi rounds — reads (and == comparisons) must stay clean.
inline int good_jacobi_round(const shard::GlobalState& gs,
                             const std::vector<int>& last_moved, int round) {
  int frontier = 0;
  run_lanes(2, [&](unsigned lane) {
    if (last_moved[lane] == round || gs.community_of(lane) != 0) ++frontier;
  });
  return frontier;
}

}  // namespace glouvain::fixture
