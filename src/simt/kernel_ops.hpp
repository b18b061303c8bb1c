// Kernel collectives: the warp-level operations of the paper's
// modularity-optimization kernel (neighbourhood hashing with slot
// claiming, the best-community reduction) and the argmax combine every
// move kernel folds with. The hashing runs only in the table-path
// reference the tests hold core's move kernels against; better() is
// the production fold.
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
// adj/w/deg) so this header depends on no core/ or zg/ type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "simt/atomics.hpp"

namespace glouvain::simt {

/// Candidate for the argmax reduction (Algorithm 2 line 14): best
/// (gain, community) seen so far, ties to the lowest community id, as
/// §4 of the paper prescribes.
struct BestComm {
  double gain;
  std::uint32_t comm;
};

/// Identity element of better(): the answer of an empty fold.
inline constexpr BestComm kEmptyBest{
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<std::uint32_t>::max()};

/// The argmax combine, a strict total order: the higher gain wins, and
/// on an exact tie the lower community id wins (Lu et al.'s
/// minimum-label rule). It is associative and commutative, so a set's
/// maximum does not depend on the order it is folded in.
inline BestComm better(const BestComm& a, const BestComm& b) noexcept {
  return b.gain > a.gain || (b.gain == a.gain && b.comm < a.comm) ? b : a;
}

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
