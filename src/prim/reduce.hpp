// Chunk-ordered parallel reduction — the Thrust reduce analogue every
// per-element sum of the library runs through (commit gains and moved
// counts, the modularity check, CSR totals, stream delta counters).
//
// [0, n) is cut into chunks whose boundaries depend on n alone. The
// caller's body sums one chunk serially and returns that partial (a
// number or a small struct of sums with operator+=); the partials land
// in the caller's Scratch and the host adds them in chunk order. The
// result is therefore the same bits for any worker count, any dynamic
// schedule, and a call nested inside another parallel region (which
// runs the same chunks inline) — and no worker writes a running sum
// into a cache line another worker also writes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "prim/scratch.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::prim {

namespace detail {

/// Elements per chunk, a function of n alone: about 64 chunks, none
/// under 1024 elements (a small input is one chunk, run inline) and
/// none over 16384.
constexpr std::size_t reduce_chunk_size(std::size_t n) noexcept {
  return std::clamp<std::size_t>((n + 63) / 64, 1024, 16384);
}

constexpr std::size_t reduce_chunks(std::size_t n) noexcept {
  const std::size_t chunk = reduce_chunk_size(n);
  return (n + chunk - 1) / chunk;
}

template <typename Body>
using ReduceResult =
    std::decay_t<std::invoke_result_t<Body&, std::size_t, std::size_t, unsigned>>;

template <typename T, typename Body>
T reduce_chunked(std::size_t n, Body& body, std::span<T> partial,
                 simt::ThreadPool& pool) {
  const std::size_t chunk = reduce_chunk_size(n);
  pool.parallel_for(partial.size(), 1, [&](std::size_t c, unsigned worker) {
    const std::size_t b = c * chunk;
    partial[c] = body(b, std::min(b + chunk, n), worker);
  });
  T total{};
  for (const T& p : partial) total += p;
  return total;
}

}  // namespace detail

/// Sum of body(begin, end, worker) over the chunks of [0, n), added in
/// chunk order. `worker` is the executing worker's id, for per-worker
/// scratch such as row decode buffers — never for accumulation. Chunk
/// partials come from `scratch`: no heap allocation once it is warm.
template <typename Body, typename T = detail::ReduceResult<Body>>
T reduce(std::size_t n, Body&& body, Scratch& scratch,
         simt::ThreadPool& pool = simt::ThreadPool::global()) {
  if (n == 0) return T{};
  Scratch::Frame frame(scratch);
  return detail::reduce_chunked(n, body,
                                scratch.alloc<T>(detail::reduce_chunks(n)),
                                pool);
}

/// Self-allocating overload for one-off callers.
template <typename Body, typename T = detail::ReduceResult<Body>>
T reduce(std::size_t n, Body&& body,
         simt::ThreadPool& pool = simt::ThreadPool::global()) {
  if (n == 0) return T{};
  std::vector<T> partial(detail::reduce_chunks(n));
  return detail::reduce_chunked(n, body, std::span<T>(partial), pool);
}

}  // namespace glouvain::prim
