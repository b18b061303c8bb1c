// The two per-vertex decision kernels of the modularity-optimization
// phase (Algorithm 2's computeMove). optimize_phase picks one by
// degree; they live in core::detail so a test can hold one against
// the other.
//
//   * compute_move, the table path: a lane group hashes the
//     neighbourhood into a task-local open-addressing table and scans
//     its slots down to the best destination.
//   * compute_move_small, the register path for degrees 1 to
//     kSmallMoveDegree: at most four neighbour communities, kept in
//     registers. No arena table, no clear, no claimed-slot list.
//
// Fold-order contract: compute_move_small makes the decision the
// table path would make for the same vertex and group, bit for bit
// (new_comm and move_gain). Every weight is summed in adjacency order,
// the order the table accumulates in. Every candidate gets the slot
// the table's double-hash probe would give it. The candidates then
// fold in the order the group's slot scan folds them. That order
// matters because better()'s epsilon tie rule is not associative.
// Degree 1 never went through the table: its one key keeps the inline
// gain of the closed form it replaces.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>

#include "check/check.hpp"
#include "core/hash_map.hpp"
#include "core/modopt.hpp"
#include "core/rows.hpp"
#include "simt/atomics.hpp"
#include "simt/kernel_ops.hpp"
#include "simt/lane_group.hpp"
#include "simt/vector_ops.hpp"
#include "util/primes.hpp"

namespace glouvain::core::detail {

/// Vertices of at most this degree take the register path. Their hash
/// capacity (3, 5 or 7 slots) stays below one 8-slot vector step, which
/// is what lets the register fold replay the vector scan.
inline constexpr std::uint32_t kSmallMoveDegree = 4;

/// Lines 15-18 of Algorithm 2, shared by both paths: move only on a
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

/// The table path for one vertex. Rows is the storage seam (PlainRows
/// or ZRows); Table is the task-local hash map; Group is a
/// FixedLaneGroup or a VectorLaneGroup. `touched` is caller scratch for
/// >= capacity slot indices.
template <typename Rows, typename Group, typename Table>
void compute_move(Rows& rows, unsigned worker, PhaseState& state,
                  graph::Weight m2, graph::VertexId v, const Group& group,
                  Table& table, std::span<std::uint32_t> touched) {
  const RowView r = rows.row(v, worker);
  const graph::Community old_c = state.community[v];
  const graph::Weight k = state.strengths[v];

  // Lines 2-13: lane-parallel hashing of the neighbourhood into the
  // task-local table (the self-loop contributes equally to every
  // candidate, so it is skipped). Claimed slots are recorded so a
  // sparse table can be scanned compactly below.
  const std::uint32_t num_touched = simt::hash_row_claim(
      group, r, v, state.community.data(), table, touched.data());

  // Line 14: scan the table slots and reduce to the best destination.
  // The gain term per candidate community c (v removed from its own
  // community first) is e_{v->c} - k_v * a_c / 2m, the variable part
  // of Eq. (2).
  graph::Weight d_old = 0;  // e_{v->C(v)\{v}}, collected during the scan
  const simt::BestComm best =
      simt::scan_best(group, table, touched.first(num_touched), old_c,
                      state.tot.data(), k, 1.0 / m2, d_old);
  decide_move(state, m2, v, old_c, k, d_old, best);
}

/// The register path for one vertex of degree 1..kSmallMoveDegree.
/// `group` is the group the table path would run the vertex on; only
/// its fold order is used (see the contract at the top of the file).
template <typename Rows, typename Group>
void compute_move_small(Rows& rows, unsigned worker, PhaseState& state,
                        graph::Weight m2, graph::VertexId v,
                        const Group& group) {
  const RowView r = rows.row(v, worker);
  assert(r.deg >= 1 && r.deg <= kSmallMoveDegree);
  const graph::Community old_c = state.community[v];
  const graph::Weight k = state.strengths[v];
  const double inv_m2 = 1.0 / m2;

  // Lines 2-13 without the table: the distinct neighbour communities in
  // the order the table claims them (adjacency order, self-loop
  // skipped), each weight summed in that order.
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

  graph::Weight d_old = 0;
  simt::BestComm best = simt::kEmptyBest;
  if (n == 1) {
    // One key: every fold order reduces to one better() against the
    // identity, and the vector scan takes its sparse (inline) branch.
    if (comm[0] == old_c) {
      d_old = weight[0];
    } else {
      const double gain =
          weight[0] - k * simt::atomic_load(state.tot[comm[0]]) * inv_m2;
      best = simt::better(simt::kEmptyBest, {gain, comm[0]});
    }
  } else if (n > 1) {
    // The slot each key would claim: the table's double-hash probe in
    // claim order, past the slots claimed before it.
    const util::HashTableParams params = util::hash_params_for_degree(r.deg);
    assert(params.capacity < 8);
    const FastMod mod_cap(params.magic_capacity, params.capacity);
    const FastMod mod_step(params.magic_capacity_minus1, params.capacity - 1);
    std::array<std::uint8_t, 8> key_at;  // slot -> index into comm
    std::uint32_t claimed = 0;           // slot bitmask
    for (unsigned i = 0; i < n; ++i) {
      std::uint32_t pos = mod_cap.mod(comm[i]);
      const std::uint32_t step = 1 + mod_step.mod(comm[i]);
      while ((claimed >> pos) & 1u) {
        pos += step;
        if (pos >= params.capacity) pos -= params.capacity;
      }
      claimed |= 1u << pos;
      key_at[pos] = static_cast<std::uint8_t>(i);
    }

    if constexpr (Group::kVector && !check::enabled()) {
      // Two or more keys make the table dense (4 * keys > capacity), so
      // the vector group scans it with vec::scan_best_sentinel: below
      // one 8-slot step that is an ascending fold over the occupied
      // slots. Handing the same primitive the keys in ascending slot
      // order replays it, down to its gain arithmetic (the AVX2 build
      // of that loop may contract to an FMA).
      std::array<graph::Community, kSmallMoveDegree> keys;
      std::array<graph::Weight, kSmallMoveDegree> weights;
      unsigned j = 0;
      for (std::uint32_t m = claimed; m != 0; m &= m - 1) {
        const unsigned i = key_at[std::countr_zero(m)];
        keys[j] = comm[i];
        weights[j++] = weight[i];
      }
      const simt::vec::BestSlot bs = simt::vec::scan_best_sentinel(
          keys.data(), weights.data(), n, old_c, state.tot.data(), k, inv_m2);
      best = {bs.gain, bs.key};
      d_old = bs.d_skip;
    } else {
      // Scalar groups fold slot `pos` into lane pos % lanes, in
      // ascending slot order, then run the halving tree. With fewer
      // than 8 slots, lanes 8 and up only ever hold the identity, and
      // better(x, identity) == x, so an 8-lane tree over lanes that
      // hold the identity past the group's width gives the same result
      // as the group's own tree, narrower or wider.
      const unsigned lanes = std::min(group.lanes(), 8u);
      std::array<simt::BestComm, 8> lane_best;
      lane_best.fill(simt::kEmptyBest);
      for (std::uint32_t m = claimed; m != 0; m &= m - 1) {
        const unsigned pos = std::countr_zero(m);
        const unsigned i = key_at[pos];
        if (comm[i] == old_c) {
          d_old = weight[i];
          continue;
        }
        const double gain =
            weight[i] - k * simt::atomic_load(state.tot[comm[i]]) * inv_m2;
        simt::BestComm& lane = lane_best[pos % lanes];
        lane = simt::better(lane, {gain, comm[i]});
      }
      best = simt::FixedLaneGroup<8>{}.reduce(
          std::span<simt::BestComm>(lane_best),
          [](const simt::BestComm& a, const simt::BestComm& b) {
            return simt::better(a, b);
          });
    }
  }
  decide_move(state, m2, v, old_c, k, d_old, best);
}

}  // namespace glouvain::core::detail
