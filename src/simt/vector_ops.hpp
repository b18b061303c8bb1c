// The vector device's one primitive: the AVX2 row sum of the device
// modularity evaluation. It works on raw pointers so the AVX2
// translation unit (vector_ops_avx2.cpp, compiled with -mavx2) needs
// no kernel headers, and it carries a portable scalar-emulation twin
// selected at runtime — calling it is always safe, with or without
// AVX2 (see simt::cpu_has_avx2()).
//
// The vector form re-associates the sum across accumulator lanes, so
// the vector device's modularity values may differ from the scalar
// device's in the last bits. Every move decision runs the same code on
// both devices.
#pragma once

#include <cstddef>
#include <cstdint>

namespace glouvain::simt::vec {

/// Sum of w[i] over i in [0, deg) where community[adj[i]] == c — the
/// inner loop of the device modularity evaluation. The vector form
/// re-associates the sum (4 accumulator lanes folded at the end).
double row_internal_weight(const std::uint32_t* adj, const double* w,
                           std::size_t deg, const std::uint32_t* community,
                           std::uint32_t c) noexcept;

namespace detail {
// AVX2 translation-unit entry point (vector_ops_avx2.cpp). Call only
// behind cpu_has_avx2() — the dispatcher above does.
double row_internal_weight_avx2(const std::uint32_t* adj, const double* w,
                                std::size_t deg,
                                const std::uint32_t* community,
                                std::uint32_t c) noexcept;
}  // namespace detail

}  // namespace glouvain::simt::vec
