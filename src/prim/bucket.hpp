// Stable counting sort ("binning") over small integer keys — the
// replacement for repeated Thrust partition() calls when grouping work
// items into the paper's degree buckets. One counting pass beats
// num_buckets stable-partition passes: O(n + B) instead of O(B * n),
// with identical output (items of bucket 0 first, ascending id inside
// each bucket — counting sort is stable over the identity order).
//
// Layout: each chunk's histogram is its own row, padded to whole cache
// lines, so no two chunks ever write one line while they count and
// scatter. The serial exclusive scan walks it bucket by bucket, chunk
// by chunk, and yields in one sweep both every chunk's scatter cursor
// and the bucket boundary offsets.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "prim/scratch.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::prim {

/// Group the items [0, n) by bucket_of(i) in [0, num_buckets):
/// out_order receives the n item ids, bucket by bucket, ascending id
/// within each bucket; out_begin (num_buckets + 1 entries) receives the
/// half-open bucket ranges. All temporaries come from `scratch`.
template <typename Idx, typename BucketFn>
void bucket_sort_index(std::size_t n, std::size_t num_buckets,
                       BucketFn&& bucket_of, std::span<Idx> out_order,
                       std::span<std::size_t> out_begin, Scratch& scratch,
                       simt::ThreadPool& pool = simt::ThreadPool::global()) {
  constexpr std::size_t kSerialCutoff = 1 << 14;
  Scratch::Frame frame(scratch);

  if (n <= kSerialCutoff || pool.size() == 1) {
    auto counts = scratch.alloc<std::size_t>(num_buckets);
    for (std::size_t b = 0; b < num_buckets; ++b) counts[b] = 0;
    for (std::size_t i = 0; i < n; ++i) ++counts[bucket_of(i)];
    std::size_t at = 0;
    for (std::size_t b = 0; b < num_buckets; ++b) {
      out_begin[b] = at;
      const std::size_t c = counts[b];
      counts[b] = at;
      at += c;
    }
    out_begin[num_buckets] = n;
    for (std::size_t i = 0; i < n; ++i) {
      out_order[counts[bucket_of(i)]++] = static_cast<Idx>(i);
    }
    return;
  }

  const std::size_t chunks = 4 * pool.size();
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  // Rows of whole cache lines from a line-aligned base.
  constexpr std::size_t kLine = 64 / sizeof(std::size_t);
  const std::size_t stride = (num_buckets + kLine - 1) / kLine * kLine;
  auto raw = scratch.alloc<std::size_t>(stride * chunks + kLine);
  void* base = raw.data();
  std::size_t space = raw.size_bytes();
  auto* counts = static_cast<std::size_t*>(
      std::align(64, stride * chunks * sizeof(std::size_t), base, space));
  const auto row_of = [&](std::size_t c) { return counts + c * stride; };

  pool.parallel_for(chunks, 1, [&](std::size_t c, unsigned) {
    std::size_t* row = row_of(c);
    for (std::size_t b = 0; b < num_buckets; ++b) row[b] = 0;
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(lo + chunk_size, n);
    for (std::size_t i = lo; i < hi; ++i) ++row[bucket_of(i)];
  });

  // Exclusive scan, bucket-major: row c's entry b becomes chunk c's
  // scatter cursor for bucket b, and the running total at each bucket
  // boundary is out_begin[b].
  std::size_t total = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    out_begin[b] = total;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t v = row_of(c)[b];
      row_of(c)[b] = total;
      total += v;
    }
  }
  out_begin[num_buckets] = n;

  pool.parallel_for(chunks, 1, [&](std::size_t c, unsigned) {
    std::size_t* row = row_of(c);
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(lo + chunk_size, n);
    for (std::size_t i = lo; i < hi; ++i) {
      out_order[row[bucket_of(i)]++] = static_cast<Idx>(i);
    }
  });
}

}  // namespace glouvain::prim
