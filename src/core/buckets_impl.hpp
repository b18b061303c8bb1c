// Implementation of bin_by_key / bin_by_key_into (included from
// buckets.hpp).
#pragma once

#include "check/check.hpp"
#include "prim/bucket.hpp"
#include "prim/sort.hpp"

namespace glouvain::core {

template <typename KeyFn, typename ClassFn>
void bin_by_key_into(std::size_t num_items, const BucketScheme& scheme,
                     KeyFn&& key, unsigned classes, ClassFn&& class_of,
                     Binned& out, prim::Scratch& scratch,
                     simt::ThreadPool& pool) {
  const std::size_t num_groups = scheme.num_buckets() * classes;
  out.classes = classes;
  out.order.resize(num_items);
  out.begin.resize(num_groups + 1);

  // One stable counting pass over (bucket, class) group ids replaces
  // the paper's num_buckets Thrust partition() calls; inside each group
  // items keep ascending id.
  prim::bucket_sort_index(
      num_items, num_groups,
      [&](std::size_t i) {
        const auto item = static_cast<graph::VertexId>(i);
        return scheme.bucket_of(key(item)) * classes + class_of(item);
      },
      std::span<graph::VertexId>(out.order),
      std::span<std::size_t>(out.begin), scratch, pool);
  // Partition contract: binning must place every item in exactly one
  // group — a dropped or doubled item desynchronizes the kernel grids.
  check::contract(out.begin[num_groups] == num_items,
                  "binning lost or duplicated items");

  // Heaviest bucket: sort each class group by descending key so dynamic
  // dispatch picks the biggest jobs first (interleaved-by-degree in the
  // paper).
  const std::size_t last = scheme.num_buckets() - 1;
  for (unsigned s = 0; s < classes; ++s) {
    const std::size_t g = last * classes + s;
    std::span<graph::VertexId> heavy(out.order.data() + out.begin[g],
                                     out.begin[g + 1] - out.begin[g]);
    prim::sort(heavy,
               [&](graph::VertexId a, graph::VertexId b) {
                 const auto ka = key(a), kb = key(b);
                 return ka != kb ? ka > kb : a < b;
               },
               scratch, pool);
  }
}

template <typename KeyFn>
Binned bin_by_key(std::size_t num_items, const BucketScheme& scheme, KeyFn&& key,
                  simt::ThreadPool& pool) {
  Binned binned;
  prim::Scratch scratch;
  bin_by_key_into(
      num_items, scheme, std::forward<KeyFn>(key), 1,
      [](graph::VertexId) { return 0u; }, binned, scratch, pool);
  return binned;
}

}  // namespace glouvain::core
