// The vector lane substrate: a lane group whose rounds execute as AVX2
// vector instructions (with a portable scalar-emulation twin — see
// vector_ops.hpp) instead of the scalar lockstep loops of
// FixedLaneGroup, and with_lane_group, the one dispatch from a bucket's
// runtime width to a group.
//
// VectorLaneGroup<kLanes> satisfies the same group concept the scalar
// groups do — lanes()/strided_for/reduce/exclusive_scan behave exactly
// like FixedLaneGroup<kLanes> — so any kernel written against the
// concept compiles against it unchanged. What changes is how the
// kernel COLLECTIVES of kernel_ops.hpp lower: with kVector set, the
// neighbourhood hash runs behind bulk community gathers and the slot
// scan/argmax runs as a masked vector sweep. kLanes keeps the paper's
// degree-bucket meaning (how many lanes cooperate on one vertex); the
// hardware vector width (8 × u32 / 4 × double under AVX2) is an
// implementation detail of the primitives underneath.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "simt/lane_group.hpp"

namespace glouvain::simt {

/// Per-worker vector-lane occupancy accounting, surfaced by the obs
/// counters ("modopt/vector_lane_occupancy"): `active` useful lane
/// slots out of `slots` issued by the vector rounds. Cache-line
/// aligned: note_rounds() updates it for every vertex.
struct alignas(64) VecLaneStats {
  std::uint64_t active = 0;
  std::uint64_t slots = 0;
};

template <unsigned kLanes>
class VectorLaneGroup {
 public:
  // The reduction tree and the strided round shape both assume a
  // power-of-two group; the paper's widths (4..32, 128) all qualify.
  static_assert(kLanes > 0 && (kLanes & (kLanes - 1)) == 0,
                "lane groups are power-of-two wide");

  static constexpr bool kVector = true;

  VectorLaneGroup() = default;
  explicit VectorLaneGroup(VecLaneStats* stats) noexcept : stats_(stats) {}

  static constexpr unsigned lanes() noexcept { return kLanes; }

  template <typename F>
  void strided_for(std::size_t n, F&& fn) const {
    FixedLaneGroup<kLanes>{}.strided_for(n, std::forward<F>(fn));
  }

  template <typename T, typename Combine>
  T reduce(std::span<T> lane_values, Combine&& combine) const {
    return FixedLaneGroup<kLanes>{}.reduce(lane_values,
                                           std::forward<Combine>(combine));
  }

  template <typename T>
  T exclusive_scan(std::span<T> lane_values) const {
    return FixedLaneGroup<kLanes>{}.exclusive_scan(lane_values);
  }

  void note_rounds(std::uint64_t active, std::uint64_t slots) const noexcept {
    if (stats_ != nullptr) {
      stats_->active += active;
      stats_->slots += slots;
    }
  }

 private:
  VecLaneStats* stats_ = nullptr;
};

/// Runs kernel(group) on the lane group of a `lanes`-wide bucket, the
/// one place a runtime width becomes a compile-time group. Every
/// power of two from 1 to 128 gets a FixedLaneGroup; on the vector
/// backend the paper's widths (4..32 and 128) get a VectorLaneGroup
/// instead, whose collectives lower to AVX2 gathers and masked scans,
/// while the ablation widths 1, 2 and 64 stay on the scalar substrate.
/// `stats` receives the vector groups' lane counts (or null). Throws
/// std::invalid_argument for any other width.
template <typename Kernel>
void with_lane_group(unsigned lanes, bool vector_backend, VecLaneStats* stats,
                     Kernel&& kernel) {
  if (vector_backend) {
    switch (lanes) {
      case 4: return kernel(VectorLaneGroup<4>{stats});
      case 8: return kernel(VectorLaneGroup<8>{stats});
      case 16: return kernel(VectorLaneGroup<16>{stats});
      case 32: return kernel(VectorLaneGroup<32>{stats});
      case 128: return kernel(VectorLaneGroup<128>{stats});
      default: break;
    }
  }
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
