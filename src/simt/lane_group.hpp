// Warp-synchronous lane groups: the unit the paper assigns to a vertex.
//
// On the GPU a vertex of degree d is processed by a group of 2^k lanes
// of one warp (k in [2,5]), by a full warp, or by a whole 128-thread
// block; lanes iterate the vertex's edges in an interleaved (strided)
// pattern and finish with a shuffle-style reduction to pick the best
// community. The software device preserves that structure: a lane group
// executes its lanes in lockstep rounds inside ONE OS thread — a warp
// never diverges across OS threads, matching SIMT — while different
// groups (different vertices) run concurrently on the pool.
//
// Keeping the lane-strided visit order and per-lane partial state means
// the kernel code below is a line-by-line transcription of Algorithm 2
// rather than a loose CPU re-imagining of it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>

namespace glouvain::simt {

/// The scalar lane group: kLanes lanes in lockstep rounds, with the
/// lane count a compile-time constant so the strided loops and the
/// reduction tree compile with constant bounds (unrolled, modulo
/// strength-reduced). simt::with_lane_group (lane_vec.hpp) is the one
/// place that turns a bucket's runtime width into a group.
///
/// Preconditions of the collectives: kLanes is a power of two (every
/// width the paper uses, 4..32 and 128, and the ablation widths 1, 2
/// and 64 are). reduce()'s offset-halving tree visits exactly
/// kLanes/2 + kLanes/4 + ... slots; with a non-power-of-two width the
/// first halving would drop the top lanes' values on the floor,
/// silently losing candidates. reduce() and exclusive_scan() take a
/// span covering ALL kLanes entries with every entry initialized: idle
/// lanes hold the combine identity (reduce) or zero (exclusive_scan),
/// because a partial final strided_for round leaves trailing lanes
/// untouched and the first halving still reads them.
template <unsigned kLanes>
class FixedLaneGroup {
 public:
  static_assert(kLanes > 0 && (kLanes & (kLanes - 1)) == 0,
                "lane groups are power-of-two wide");

  /// Scalar lockstep substrate; kernels written against the group
  /// concept branch on this to pick their lowering (see kernel_ops.hpp
  /// and lane_vec.hpp for the vector twin).
  static constexpr bool kVector = false;

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

  /// Tree reduction of per-lane values, emulating __shfl_down_sync.
  /// combine(a, b) must be associative and commutative.
  template <typename T, typename Combine>
  T reduce(std::span<T> lane_values, Combine&& combine) const {
    assert(lane_values.size() >= kLanes &&
           "reduce needs a full-width lane array");
    for (unsigned offset = kLanes / 2; offset > 0; offset /= 2) {
      for (unsigned lane = 0; lane < offset; ++lane) {
        lane_values[lane] =
            combine(lane_values[lane], lane_values[lane + offset]);
      }
    }
    return lane_values[0];
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

}  // namespace glouvain::simt
