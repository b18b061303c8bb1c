// Parallel sort (Thrust sort analogue).
//
// Used by the core algorithm to order the highest degree bucket by
// descending degree before interleaved assignment to blocks (§4.1) and
// by the graph builder to assemble CSR rows. Chunked std::sort followed
// by log2(chunks) rounds of pairwise parallel merges — simple, stable
// performance on 2–64 cores, no extra assumptions on the key type.
//
// The Scratch-accepting overloads draw the merge buffer from a
// reusable arena so steady-state sorts allocate nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "prim/scratch.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::prim {

namespace detail {

constexpr std::size_t kSortSerialCutoff = 1 << 15;

/// Parallel merge sort over `data` with `buffer` (same length) as the
/// ping-pong target. Assumes n > 0 and pool.size() > 1.
template <typename T, typename Compare>
void sort_chunked(std::span<T> data, std::span<T> buffer, Compare comp,
                  simt::ThreadPool& pool) {
  const std::size_t n = data.size();
  // Round chunk count up to a power of two so merge rounds pair evenly.
  std::size_t chunks = 1;
  while (chunks < 2 * static_cast<std::size_t>(pool.size())) chunks <<= 1;
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  pool.parallel_for(chunks, 1, [&](std::size_t c, unsigned) {
    const std::size_t b = std::min(c * chunk_size, n);
    const std::size_t e = std::min(b + chunk_size, n);
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(b),
              data.begin() + static_cast<std::ptrdiff_t>(e), comp);
  });

  std::span<T> src = data;
  std::span<T> dst = buffer;
  for (std::size_t width = chunk_size; width < n; width *= 2) {
    const std::size_t pairs = (n + 2 * width - 1) / (2 * width);
    pool.parallel_for(pairs, 1, [&](std::size_t p, unsigned) {
      const std::size_t lo = std::min(p * 2 * width, n);
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::merge(src.begin() + static_cast<std::ptrdiff_t>(lo),
                 src.begin() + static_cast<std::ptrdiff_t>(mid),
                 src.begin() + static_cast<std::ptrdiff_t>(mid),
                 src.begin() + static_cast<std::ptrdiff_t>(hi),
                 dst.begin() + static_cast<std::ptrdiff_t>(lo), comp);
    });
    std::swap(src, dst);
  }
  if (src.data() != data.data()) {
    pool.parallel_for(n, [&](std::size_t i, unsigned) { data[i] = src[i]; });
  }
}

}  // namespace detail

template <typename T, typename Compare = std::less<T>>
void sort(std::span<T> data, Compare comp, Scratch& scratch,
          simt::ThreadPool& pool = simt::ThreadPool::global()) {
  const std::size_t n = data.size();
  if (n <= detail::kSortSerialCutoff || pool.size() == 1) {
    std::sort(data.begin(), data.end(), comp);
    return;
  }
  Scratch::Frame frame(scratch);
  detail::sort_chunked(data, scratch.alloc<T>(n), comp, pool);
}

template <typename T, typename Compare = std::less<T>>
void sort(std::span<T> data, Compare comp = {},
          simt::ThreadPool& pool = simt::ThreadPool::global()) {
  const std::size_t n = data.size();
  if (n <= detail::kSortSerialCutoff || pool.size() == 1) {
    std::sort(data.begin(), data.end(), comp);
    return;
  }
  std::vector<T> buffer(n);
  detail::sort_chunked(data, std::span<T>(buffer), comp, pool);
}

}  // namespace glouvain::prim
