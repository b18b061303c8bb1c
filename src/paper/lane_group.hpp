// Warp-synchronous lane groups: the unit the paper assigns to a vertex.
//
// On the GPU a vertex of degree d is processed by a group of 2^k lanes
// of one warp (k in [2,5]), by a full warp, or by a whole 128-thread
// block; lanes iterate the vertex's edges in an interleaved (strided)
// pattern. A lane group keeps that structure: it executes its lanes in
// lockstep rounds inside ONE OS thread — a warp never diverges across
// OS threads, matching SIMT.
//
// Keeping the lane-strided visit order means the table path's hashing
// loop (compute_move.hpp) is a line-by-line transcription of Algorithm
// 2. No production kernel runs a lane group: only that reference, its
// tests and the micro_hashing bench do. The best-community reduction
// needs no lanes: it folds the claimed slots under a total order,
// which reaches the answer of the GPU's shuffle-down tree.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <stdexcept>

namespace glouvain::simt {

/// A lane group: kLanes lanes in lockstep rounds, with the lane count a
/// compile-time constant so the strided loops compile with constant
/// bounds (unrolled, modulo strength-reduced). with_lane_group is the
/// one place that turns a bucket's runtime width into a group.
///
/// kLanes is a power of two (every width the paper uses, 4..32 and
/// 128, and the ablation widths 1, 2 and 64 are). exclusive_scan()
/// takes a span covering ALL kLanes entries with every entry
/// initialized: a lane that never counted (a short row leaves the top
/// lanes idle) holds zero.
template <unsigned kLanes>
class FixedLaneGroup {
 public:
  static_assert(kLanes > 0 && (kLanes & (kLanes - 1)) == 0,
                "lane groups are power-of-two wide");

  static constexpr unsigned lanes() noexcept { return kLanes; }

  /// Visit indices [0, n) in warp order: round r dispatches index
  /// r*kLanes+lane for each active lane. fn(lane, index).
  template <typename F>
  void strided_for(std::size_t n, F&& fn) const {
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::size_t limit = std::min<std::size_t>(kLanes, n - base);
      for (unsigned lane = 0; lane < limit; ++lane) {
        fn(lane, base + lane);
      }
    }
  }

  /// Exclusive prefix sum over per-lane counts (Hillis–Steele shape);
  /// returns the total. Used when lanes claim slots in an output array.
  template <typename T>
  T exclusive_scan(std::span<T> lane_values) const {
    assert(lane_values.size() >= kLanes &&
           "exclusive_scan needs a full-width lane array");
    T running{};
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const T v = lane_values[lane];
      lane_values[lane] = running;
      running += v;
    }
    return running;
  }
};

/// Runs kernel(group) on the lane group of a `lanes`-wide bucket, the
/// one place a runtime width becomes a compile-time group. Every power
/// of two from 1 to 128 gets a FixedLaneGroup; any other width throws
/// std::invalid_argument.
template <typename Kernel>
void with_lane_group(unsigned lanes, Kernel&& kernel) {
  switch (lanes) {
    case 1: return kernel(FixedLaneGroup<1>{});
    case 2: return kernel(FixedLaneGroup<2>{});
    case 4: return kernel(FixedLaneGroup<4>{});
    case 8: return kernel(FixedLaneGroup<8>{});
    case 16: return kernel(FixedLaneGroup<16>{});
    case 32: return kernel(FixedLaneGroup<32>{});
    case 64: return kernel(FixedLaneGroup<64>{});
    case 128: return kernel(FixedLaneGroup<128>{});
    default:
      throw std::invalid_argument(
          "lane groups are a power of two from 1 to 128 lanes wide");
  }
}

}  // namespace glouvain::simt
