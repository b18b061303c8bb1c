// The paper's table path for one vertex: Algorithm 2's computeMove as
// the GPU kernel runs it. A lane group hashes the neighbourhood into a
// task-local open-addressing table, and the claimed slots fold down to
// the best destination. No production kernel runs it; it is the
// reference SmallMove.* and DenseMove.* hold core's register and dense
// move kernels against (core/move_kernels.hpp), which decide bit for
// bit alike.
//
//   * Hashing (Algorithm 2 lines 2-13) is the lane-strided loop of the
//     group: round r of a kLanes-wide group probes edges
//     r*kLanes .. r*kLanes + kLanes - 1.
//   * The reduction (line 14) folds the claimed slots under better(),
//     a total order, so its answer is the maximum of the candidate set
//     whatever order the slots were claimed in: the answer the GPU's
//     per-lane fold and shuffle-down tree reach.
//
// Tables and rows are duck-typed (key_at/weight_at/insert_add_claim;
// adj/w/deg) so the two collectives depend on no core/ or zg/ type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/modopt.hpp"
#include "core/move_kernels.hpp"
#include "core/rows.hpp"
#include "simt/atomics.hpp"
#include "simt/kernel_ops.hpp"

namespace glouvain::simt {

/// Algorithm 2 lines 2-13 as a group collective: lane-parallel hashing
/// of vertex `self`'s neighbourhood into the task-local table,
/// accumulating edge weight under each neighbour's community and
/// recording claimed slots in `touched` (caller scratch >= capacity).
/// The self-loop contributes equally to every candidate (it moves with
/// the vertex), so it is skipped. Returns the claimed-slot count.
template <typename Group, typename Row, typename Table>
std::uint32_t hash_row_claim(const Group& group, const Row& r,
                             std::uint32_t self,
                             const std::uint32_t* community, Table& table,
                             std::uint32_t* touched) {
  std::uint32_t num_touched = 0;
  group.strided_for(r.deg, [&](unsigned /*lane*/, std::size_t idx) {
    const std::uint32_t j = r.adj[idx];
    if (j == self) return;
    bool claimed = false;
    const std::size_t pos =
        table.insert_add_claim(atomic_load(community[j]), r.w[idx], claimed);
    if (claimed) touched[num_touched++] = static_cast<std::uint32_t>(pos);
  });
  return num_touched;
}

/// Algorithm 2 line 14: fold the claimed slots (`touched`, from
/// hash_row_claim), evaluating gain = weight - k * tot[key] * inv_m2
/// for every candidate community, down to the better() maximum. The
/// slot holding `skip_key` (the vertex's current community) is
/// excluded from the argmax; its weight lands in d_skip for the
/// caller's stay-gain term.
template <typename Table>
BestComm scan_best(const Table& table, std::span<const std::uint32_t> touched,
                   std::uint32_t skip_key, const double* tot, double k,
                   double inv_m2, double& d_skip) {
  BestComm best = kEmptyBest;
  for (const std::uint32_t pos : touched) {
    const std::uint32_t c = table.key_at(pos);
    if (c == skip_key) {
      d_skip = table.weight_at(pos);
      continue;
    }
    const double gain =
        table.weight_at(pos) - k * atomic_load(tot[c]) * inv_m2;
    best = better(best, {gain, c});
  }
  return best;
}

}  // namespace glouvain::simt

namespace glouvain::core::detail {

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

}  // namespace glouvain::core::detail
