// Atomic operations on plain arrays, mirroring the CUDA intrinsics the
// paper's kernels use (atomicAdd, atomicCAS). Implemented with C++20
// std::atomic_ref so the underlying containers stay ordinary vectors
// that the non-kernel host code can read directly between launches —
// exactly the global-memory model of the GPU original.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "check/check.hpp"

namespace glouvain::simt {

/// atomicAdd(&loc, v): returns the OLD value, like the CUDA intrinsic.
template <typename T>
inline T atomic_add(T& loc, T v) noexcept {
  static_assert(std::is_arithmetic_v<T>);
  check::note_atomic(&loc);
  if constexpr (std::is_floating_point_v<T>) {
    // GCC 12's atomic_ref<double>::fetch_add lowers to a CAS loop; we
    // spell the loop out so the code matches the CUDA pre-Pascal
    // atomicAdd(double) semantics and works on any libstdc++.
    std::atomic_ref<T> ref(loc);
    T old = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(old, old + v, std::memory_order_relaxed)) {
    }
    return old;
  } else {
    return std::atomic_ref<T>(loc).fetch_add(v, std::memory_order_relaxed);
  }
}

/// atomicSub analogue.
template <typename T>
inline T atomic_sub(T& loc, T v) noexcept {
  return atomic_add(loc, static_cast<T>(-v));
}

/// atomicCAS(&loc, expected, desired): returns the value read; the swap
/// happened iff the return value equals `expected` (CUDA semantics).
template <typename T>
inline T atomic_cas(T& loc, T expected, T desired) noexcept {
  std::atomic_ref<T> ref(loc);
  const bool won = ref.compare_exchange_strong(
      expected, desired, std::memory_order_acq_rel, std::memory_order_acquire);
  if (won) {
    check::note_cas_claim(&loc);
  } else {
    check::note_atomic(&loc);
  }
  return expected;  // compare_exchange writes the observed value on failure
}

/// Volatile-style read/write used where kernels communicate through
/// global arrays across a launch boundary.
template <typename T>
inline T atomic_load(const T& loc) noexcept {
  check::note_atomic(&loc);
  return std::atomic_ref<const T>(loc).load(std::memory_order_acquire);
}

template <typename T>
inline void atomic_store(T& loc, T v) noexcept {
  check::note_atomic(&loc);
  std::atomic_ref<T>(loc).store(v, std::memory_order_release);
}

}  // namespace glouvain::simt
