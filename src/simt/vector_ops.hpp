// Raw vector primitives of the AVX2 lane substrate: the operations a
// lane group's rounds lower to when the device runs Backend::kVector.
// Everything here works on raw pointers so the AVX2 translation unit
// (vector_ops_avx2.cpp, compiled with -mavx2) needs no kernel
// headers, and every entry point carries a portable scalar-emulation
// twin selected at runtime — calling these is always safe, with or
// without AVX2 (see simt::cpu_has_avx2()).
//
// Semantics are pinned by the scalar kernels they accelerate:
//   * per-element arithmetic (the gain multiply/multiply/subtract
//     chain) performs the exact same IEEE operations as the scalar
//     kernel, so individual gains are bitwise-equal; the argmax folds
//     by kernel_ops better(), a total order, so the vector lanes' fold
//     order (slot i into accumulator lane i%4) picks the scalar fold's
//     answer;
//   * reductions (row_internal_weight) re-associate the sum across
//     accumulator lanes — permitted on the vector backend only, whose
//     contract is ≥98% quality parity, not bitwise identity.
#pragma once

#include <cstddef>
#include <cstdint>

namespace glouvain::simt::vec {

/// Result of a fused slot scan: the argmax candidate plus the weight
/// found under `skip_key` (at most one slot holds it).
struct BestSlot {
  double gain;
  std::uint32_t key;
  double d_skip;
};

/// out[i] = table[idx[i]] for i in [0, n). The vector form issues
/// 8-wide AVX2 gathers — the serial cache-miss chain of the scalar
/// loop becomes memory-level parallelism.
void gather_u32(const std::uint32_t* idx, std::size_t n,
                const std::uint32_t* table, std::uint32_t* out) noexcept;

/// Fused "scan slots, gather tot, gain, argmax" over a sentinel-layout
/// table (keys[pos] == 0xffffffff marks an empty slot): for every
/// occupied slot with key != skip_key evaluate
///   gain = weights[pos] - k * tot[key] * inv_m2
/// and return the best (gain, key) under kernel_ops better() (exact
/// ties to the lowest key); d_skip receives weights at key == skip_key.
BestSlot scan_best_sentinel(const std::uint32_t* keys, const double* weights,
                            std::size_t cap, std::uint32_t skip_key,
                            const double* tot, double k,
                            double inv_m2) noexcept;

/// Sum of w[i] over i in [0, deg) where community[adj[i]] == c — the
/// inner loop of the device modularity evaluation. The vector form
/// re-associates the sum (4 accumulator lanes folded at the end).
double row_internal_weight(const std::uint32_t* adj, const double* w,
                           std::size_t deg, const std::uint32_t* community,
                           std::uint32_t c) noexcept;

namespace detail {
// AVX2 translation-unit entry points (vector_ops_avx2.cpp). Call only
// behind cpu_has_avx2() — the dispatchers above do.
void gather_u32_avx2(const std::uint32_t* idx, std::size_t n,
                     const std::uint32_t* table, std::uint32_t* out) noexcept;
BestSlot scan_best_sentinel_avx2(const std::uint32_t* keys,
                                 const double* weights, std::size_t cap,
                                 std::uint32_t skip_key, const double* tot,
                                 double k, double inv_m2) noexcept;
double row_internal_weight_avx2(const std::uint32_t* adj, const double* w,
                                std::size_t deg,
                                const std::uint32_t* community,
                                std::uint32_t c) noexcept;
}  // namespace detail

}  // namespace glouvain::simt::vec
