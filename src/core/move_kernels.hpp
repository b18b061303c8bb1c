// The three per-vertex decision kernels of the modularity-optimization
// phase (Algorithm 2's computeMove). optimize_phase runs the register
// path up to kSmallMoveDegree and the dense path above it; the paper's
// table path is the reference both are held against. They live in
// core::detail so a test can hold each against the others.
//
//   * compute_move, the table path: a lane group hashes the
//     neighbourhood into a task-local open-addressing table, and its
//     claimed slots fold down to the best destination.
//   * compute_move_small, the register path for degrees 1 to
//     kSmallMoveDegree: at most four neighbour communities, kept in
//     registers. No accumulator, no clear, no touched list.
//   * compute_move_dense, the dense path for every degree above
//     kSmallMoveDegree (DESIGN §5.10): the worker's CommunityWeights,
//     one slot per community id, sums the neighbourhood, and its
//     touched ids fold down to the best destination.
//
// All three sum each weight in adjacency order, starting from 0, and
// take the better() maximum, which does not depend on fold order, so
// they make the same decision bit for bit (new_comm and move_gain).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "check/check.hpp"
#include "core/community_weights.hpp"
#include "core/modopt.hpp"
#include "core/rows.hpp"
#include "simt/atomics.hpp"
#include "simt/kernel_ops.hpp"

namespace glouvain::core::detail {

/// Vertices of at most this degree take the register path.
inline constexpr std::uint32_t kSmallMoveDegree = 4;

/// Lines 15-18 of Algorithm 2, shared by every path: move only on a
/// strictly positive gain over staying, subject to the singleton guard,
/// and record the decision and its predicted gain. Forced inline: GCC
/// otherwise keeps one outlined copy that every kernel calls, where the
/// code it was factored out of sat inline in each kernel.
[[gnu::always_inline]] inline void decide_move(
    PhaseState& state, graph::Weight m2, graph::VertexId v,
    graph::Community old_c, graph::Weight k, graph::Weight d_old,
    simt::BestComm best) {
  const double inv_m2 = 1.0 / m2;
  // e_{v->C(v)\{v}} enters both sides of Eq. (2); here it appears only
  // in the stay gain.
  const double stay_gain =
      d_old - k * (simt::atomic_load(state.tot[old_c]) - k) * inv_m2;
  bool move =
      best.comm != graph::kInvalidCommunity && best.gain > stay_gain + 1e-15;
  // Singleton-to-singleton guard from [16] (paper §4): a vertex that is
  // a community by itself may only join another singleton community if
  // that community's id is smaller. The guard vetoes the chosen move
  // (the vertex waits a sweep) rather than redirecting it to a
  // second-best target, which would cascade into over-merging.
  if (move && simt::atomic_load(state.com_size[old_c]) == 1 &&
      best.comm > old_c &&
      simt::atomic_load(state.com_size[best.comm]) == 1) {
    move = false;
  }
  check::note_plain_write(&state.new_comm[v]);
  state.new_comm[v] = move ? best.comm : old_c;
  // Predicted dQ of this move against the snapshot (exact if no other
  // vertex moves concurrently); drives the sweep stopping rule.
  check::note_plain_write(&state.move_gain[v]);
  state.move_gain[v] = move ? 2.0 * (best.gain - stay_gain) / m2 : 0.0;
}

/// The table path for one vertex, as the paper's GPU kernel runs it.
/// Rows is the storage seam (PlainRows or ZRows); Table is the
/// task-local hash map; Group is a FixedLaneGroup. `touched` is caller
/// scratch for >= capacity slot indices.
template <typename Rows, typename Group, typename Table>
void compute_move(Rows& rows, unsigned worker, PhaseState& state,
                  graph::Weight m2, graph::VertexId v, const Group& group,
                  Table& table, std::span<std::uint32_t> touched) {
  const RowView r = rows.row(v, worker);
  const graph::Community old_c = state.community[v];
  const graph::Weight k = state.strengths[v];

  // Lines 2-13: lane-parallel hashing of the neighbourhood into the
  // task-local table (the self-loop contributes equally to every
  // candidate, so it is skipped). Claimed slots are recorded for the
  // fold below.
  const std::uint32_t num_touched = simt::hash_row_claim(
      group, r, v, state.community.data(), table, touched.data());

  // Line 14: fold the claimed slots down to the best destination.
  // The gain term per candidate community c (v removed from its own
  // community first) is e_{v->c} - k_v * a_c / 2m, the variable part
  // of Eq. (2).
  graph::Weight d_old = 0;  // e_{v->C(v)\{v}}, collected during the scan
  const simt::BestComm best =
      simt::scan_best(table, touched.first(num_touched), old_c,
                      state.tot.data(), k, 1.0 / m2, d_old);
  decide_move(state, m2, v, old_c, k, d_old, best);
}

/// The register path for one vertex of degree 1..kSmallMoveDegree.
template <typename Rows>
void compute_move_small(Rows& rows, unsigned worker, PhaseState& state,
                        graph::Weight m2, graph::VertexId v) {
  const RowView r = rows.row(v, worker);
  assert(r.deg >= 1 && r.deg <= kSmallMoveDegree);
  const graph::Community old_c = state.community[v];
  const graph::Weight k = state.strengths[v];
  const double inv_m2 = 1.0 / m2;

  // Lines 2-13 without the table: the distinct neighbour communities in
  // first-seen order (self-loop skipped), each weight summed in
  // adjacency order.
  std::array<graph::Community, kSmallMoveDegree> comm;
  std::array<graph::Weight, kSmallMoveDegree> weight;
  unsigned n = 0;
  for (std::uint32_t i = 0; i < r.deg; ++i) {
    if (r.adj[i] == v) continue;
    const graph::Community c = simt::atomic_load(state.community[r.adj[i]]);
    unsigned at = 0;
    while (at < n && comm[at] != c) ++at;
    if (at == n) {
      comm[n] = c;
      weight[n++] = r.w[i];
    } else {
      weight[at] += r.w[i];
    }
  }

  // Line 14 over the candidates in first-seen order.
  graph::Weight d_old = 0;
  simt::BestComm best = simt::kEmptyBest;
  for (unsigned i = 0; i < n; ++i) {
    if (comm[i] == old_c) {
      d_old = weight[i];
      continue;
    }
    const double gain =
        weight[i] - k * simt::atomic_load(state.tot[comm[i]]) * inv_m2;
    best = simt::better(best, {gain, comm[i]});
  }
  decide_move(state, m2, v, old_c, k, d_old, best);
}

/// The dense path for one vertex of degree above kSmallMoveDegree:
/// `acc` is the worker's accumulator, sized to the phase's ids and to
/// at least deg(v) touched ids, and empty on entry and on exit.
template <typename Rows>
void compute_move_dense(Rows& rows, unsigned worker, PhaseState& state,
                        graph::Weight m2, graph::VertexId v,
                        CommunityWeights& acc) {
  // A missed clear would add the previous vertex's sums to this one's.
  check::contract(acc.touched().empty(),
                  "modopt: dense accumulator not empty on entry");
  const RowView r = rows.row(v, worker);
  const graph::Community old_c = state.community[v];
  const graph::Weight k = state.strengths[v];
  const double inv_m2 = 1.0 / m2;

  // Lines 2-13 with one slot per community id (self-loop skipped).
  acc.add(r, v, [&](graph::VertexId u) {
    return simt::atomic_load(state.community[u]);
  });

  // Line 14 over the touched ids, which it also clears; an untouched
  // old_c reads 0, as the table path's d_skip does.
  const graph::Weight d_old = acc[old_c];
  simt::BestComm best = simt::kEmptyBest;
  acc.drain([&](graph::Community c, graph::Weight w) {
    if (c == old_c) return;
    const double gain = w - k * simt::atomic_load(state.tot[c]) * inv_m2;
    best = simt::better(best, {gain, c});
  });
  decide_move(state, m2, v, old_c, k, d_old, best);
}

}  // namespace glouvain::core::detail
