// The argmax combine every move kernel folds with: the register and
// dense kernels (core/move_kernels.hpp) and the paper's table path
// (paper/compute_move.hpp) take the better() maximum of their
// candidate destinations.
#pragma once

#include <cstdint>
#include <limits>

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

}  // namespace glouvain::simt
