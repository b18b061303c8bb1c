// Backend-parameterized kernel collectives: the warp-level operations
// of the paper's kernels (neighbourhood hashing with slot claiming,
// the fused slot-scan + best-community reduction), written once and
// executed by whichever lane substrate the group provides.
//
//   * For the scalar group (FixedLaneGroup — kVector is false) each
//     collective is the line-by-line Algorithm 2 loop that used to
//     live in core/modopt.cpp, moved verbatim: operation order,
//     check:: notes and atomic_loads are identical, so the scalar
//     backend's partitions are bitwise-unchanged.
//   * For VectorLaneGroup (kVector true) the collective lowers to the
//     AVX2 primitives of vector_ops.hpp: bulk community gathers ahead
//     of the hash probes, and a masked vector scan/argmax instead of
//     the per-lane fold + shuffle tree.
//
// Under a GLOUVAIN_SIMTCHECK build every collective takes the scalar
// reference path regardless of group: the shadow-memory checker
// validates the scalar twin (raw vector loads carry no check:: notes,
// so instrumenting them would only blind the checker).
//
// Tables and rows are duck-typed (capacity/key_at/weight_at/occupied/
// insert_add/insert_add_claim; adj/w/deg) so this header depends on no
// core/ or zg/ type. Vector fast paths additionally use the raw-span
// accessors (keys_data/weights_data).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>

#include "check/check.hpp"
#include "simt/atomics.hpp"
#include "simt/vector_ops.hpp"

namespace glouvain::simt {

/// Per-lane candidate for the warp argmax reduction (Algorithm 2 line
/// 14): best (gain, community) seen so far, ties to the lowest
/// community id, as §4 of the paper prescribes.
struct BestComm {
  double gain;
  std::uint32_t comm;
};

/// Identity element of better(): what an idle lane reports. Trivially
/// copyable so per-group candidate arrays can stay uninitialized past
/// the active lanes.
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

namespace detail {

/// Edges gathered per chunk on the vector path: two 8-wide AVX2
/// gathers of neighbour communities land in this stack buffer before
/// the (inherently serial) hash probes consume them.
inline constexpr std::size_t kGatherChunk = 16;

template <typename Group>
concept HasLaneStats = requires(const Group& g) {
  g.note_rounds(std::uint64_t{}, std::uint64_t{});
};

/// Occupancy accounting for the obs counters: `active` lane slots did
/// useful work out of `slots` issued (vector width × rounds). No-op
/// for groups without a stats sink.
template <typename Group>
void note_rounds(const Group& group, std::uint64_t active,
                 std::uint64_t slots) noexcept {
  if constexpr (HasLaneStats<Group>) group.note_rounds(active, slots);
}

}  // namespace detail

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
  if constexpr (Group::kVector && !check::enabled()) {
    // Bulk-gather the neighbour communities a chunk at a time, then
    // probe serially from the register-warm buffer. community[] is
    // stable for the whole launch (moves commit between launches), so
    // the gathered values equal what per-probe atomic_loads would see.
    std::uint32_t cbuf[detail::kGatherChunk];
    for (std::size_t base = 0; base < r.deg; base += detail::kGatherChunk) {
      const std::size_t m =
          std::min<std::size_t>(detail::kGatherChunk, r.deg - base);
      vec::gather_u32(r.adj + base, m, community, cbuf);
      for (std::size_t i = 0; i < m; ++i) {
        if (r.adj[base + i] == self) continue;
        bool claimed = false;
        const std::size_t pos =
            table.insert_add_claim(cbuf[i], r.w[base + i], claimed);
        if (claimed) touched[num_touched++] = static_cast<std::uint32_t>(pos);
      }
    }
    detail::note_rounds(group, r.deg, (r.deg + 7) / 8 * 8);
    return num_touched;
  }
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

/// The aggregation flavour (Algorithm 3 mergeCommunity inner loop):
/// hash every edge of the row — self-loops included, they carry the
/// community's internal weight — without claim tracking.
template <typename Group, typename Row, typename Table>
void hash_row(const Group& group, const Row& r, const std::uint32_t* community,
              Table& table) {
  if constexpr (Group::kVector && !check::enabled()) {
    std::uint32_t cbuf[detail::kGatherChunk];
    for (std::size_t base = 0; base < r.deg; base += detail::kGatherChunk) {
      const std::size_t m =
          std::min<std::size_t>(detail::kGatherChunk, r.deg - base);
      vec::gather_u32(r.adj + base, m, community, cbuf);
      for (std::size_t i = 0; i < m; ++i) {
        table.insert_add(cbuf[i], r.w[base + i]);
      }
    }
    detail::note_rounds(group, r.deg, (r.deg + 7) / 8 * 8);
    return;
  }
  group.strided_for(r.deg, [&](unsigned /*lane*/, std::size_t idx) {
    table.insert_add(community[r.adj[idx]], r.w[idx]);
  });
}

/// Algorithm 2 line 14 as a group collective: scan the table's slots,
/// evaluate gain = weight - k * tot[key] * inv_m2 for every candidate
/// community, and reduce to the best (gain, community) — the software
/// form of the paper's shuffle-down argmax. The slot holding
/// `skip_key` (the vertex's current community) is excluded from the
/// argmax; its weight lands in d_skip for the caller's stay-gain term.
/// `touched` is the claimed-slot list from hash_row_claim.
template <typename Group, typename Table>
BestComm scan_best(const Group& group, const Table& table,
                   std::span<const std::uint32_t> touched,
                   std::uint32_t skip_key, const double* tot, double k,
                   double inv_m2, double& d_skip) {
  if (touched.size() * 4 <= table.capacity()) {
    // Sparse table (typical once the neighbourhood has collapsed into
    // a few communities): fold only the claimed slots, in claim order.
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
  if constexpr (Group::kVector && !check::enabled()) {
    const vec::BestSlot bs = vec::scan_best_sentinel(
        table.keys_data(), table.weights_data(), table.capacity(), skip_key,
        tot, k, inv_m2);
    detail::note_rounds(group, touched.size(), table.capacity());
    d_skip = bs.d_skip;
    return {bs.gain, bs.key};
  }

  // Scalar reference: per-lane fold + tree reduction, verbatim from
  // the original compute_move. Only the group's own lanes are
  // initialized: for a 4-lane group the other 124 entries are never
  // read, and zeroing all 2KB per vertex dominated small-degree
  // kernels.
  std::array<BestComm, 128> lane_best;
  for (unsigned l = 0; l < group.lanes(); ++l) lane_best[l] = kEmptyBest;
  group.strided_for(table.capacity(), [&](unsigned lane, std::size_t pos) {
    if (!table.occupied(pos)) return;
    const std::uint32_t c = table.key_at(pos);
    if (c == skip_key) {
      // Lanes of a group execute inside one OS thread, so this plain
      // write is race-free (at most one slot holds skip_key).
      d_skip = table.weight_at(pos);
      return;
    }
    const double gain = table.weight_at(pos) - k * atomic_load(tot[c]) * inv_m2;
    lane_best[lane] = better(lane_best[lane], {gain, c});
  });
  return group.reduce(
      std::span<BestComm>(lane_best.data(), group.lanes()),
      [](const BestComm& a, const BestComm& b) { return better(a, b); });
}

}  // namespace glouvain::simt
