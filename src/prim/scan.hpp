// Parallel prefix sums — the Thrust analogue used between kernels.
//
// The paper's host code calls Thrust prefix sums three times per
// aggregation (newID renumbering, edge-position bounds, vertex-start
// offsets; Algorithm 3 lines 12–16). These implementations use the
// classic two-pass block-scan: per-chunk partial sums, a sequential
// scan over the (few) chunk totals, then a parallel fix-up pass.
//
// Every entry point has a Scratch-accepting overload that draws the
// chunk-partial buffer from a reusable arena (zero allocations in
// steady state); the plain overloads remain as thin self-allocating
// wrappers for one-off callers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "prim/scratch.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::prim {

namespace detail {

constexpr std::size_t kScanSerialCutoff = 1 << 15;

template <typename T>
T exclusive_scan_chunked(std::span<const T> in, std::span<T> out,
                         std::span<T> partial, std::size_t chunk_size,
                         simt::ThreadPool& pool) {
  const std::size_t n = in.size();
  const std::size_t chunks = partial.size();
  pool.parallel_for(chunks, 1, [&](std::size_t c, unsigned) {
    const std::size_t b = c * chunk_size;
    const std::size_t e = std::min(b + chunk_size, n);
    T sum{};
    for (std::size_t i = b; i < e; ++i) sum += in[i];
    partial[c] = sum;
  });

  T total{};
  for (std::size_t c = 0; c < chunks; ++c) {
    const T v = partial[c];
    partial[c] = total;
    total += v;
  }

  pool.parallel_for(chunks, 1, [&](std::size_t c, unsigned) {
    const std::size_t b = c * chunk_size;
    const std::size_t e = std::min(b + chunk_size, n);
    T running = partial[c];
    for (std::size_t i = b; i < e; ++i) {
      const T v = in[i];
      out[i] = running;
      running += v;
    }
  });
  return total;
}

}  // namespace detail

/// out[i] = sum of in[0..i); returns the grand total. in and out may
/// alias. Falls back to a serial scan below the cutoff. Chunk partials
/// come from `scratch`: no heap allocation once the arena is warm.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out, Scratch& scratch,
                 simt::ThreadPool& pool = simt::ThreadPool::global()) {
  const std::size_t n = in.size();
  if (n == 0) return T{};
  if (n <= detail::kScanSerialCutoff || pool.size() == 1) {
    T running{};
    for (std::size_t i = 0; i < n; ++i) {
      const T v = in[i];
      out[i] = running;
      running += v;
    }
    return running;
  }
  const std::size_t chunks = 4 * pool.size();
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  Scratch::Frame frame(scratch);
  return detail::exclusive_scan_chunked(in, out, scratch.alloc<T>(chunks),
                                        chunk_size, pool);
}

/// Self-allocating overload for one-off callers.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out,
                 simt::ThreadPool& pool = simt::ThreadPool::global()) {
  const std::size_t n = in.size();
  if (n == 0) return T{};
  if (n <= detail::kScanSerialCutoff || pool.size() == 1) {
    T running{};
    for (std::size_t i = 0; i < n; ++i) {
      const T v = in[i];
      out[i] = running;
      running += v;
    }
    return running;
  }
  const std::size_t chunks = 4 * pool.size();
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<T> partial(chunks, T{});
  return detail::exclusive_scan_chunked(in, out, std::span<T>(partial),
                                        chunk_size, pool);
}

/// In-place convenience overloads.
template <typename T>
T exclusive_scan(std::span<T> data, Scratch& scratch,
                 simt::ThreadPool& pool = simt::ThreadPool::global()) {
  return exclusive_scan(std::span<const T>(data.data(), data.size()), data,
                        scratch, pool);
}

template <typename T>
T exclusive_scan(std::span<T> data,
                 simt::ThreadPool& pool = simt::ThreadPool::global()) {
  return exclusive_scan(std::span<const T>(data.data(), data.size()), data, pool);
}

}  // namespace glouvain::prim
