// Work binning (Algorithm 1 line 5 / Algorithm 3 line 21): group items
// (vertices or communities) by a work key (degree or community degree
// sum) into the buckets of a BucketScheme, and within each bucket by a
// small class id (modopt's commit sub-rounds; aggregation uses one
// class). The paper's host code calls Thrust partition() once per
// bucket; bin_by_key_into instead runs ONE stable counting sort over
// (bucket, class) group ids (O(n + B*S) rather than O(B * n)), and
// reuses the caller's Binned storage so steady-state binning allocates
// nothing.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "graph/types.hpp"
#include "prim/scratch.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::core {

struct Binned {
  /// Items reordered so each (bucket, class) group is contiguous:
  /// bucket by bucket, class by class inside each bucket.
  std::vector<graph::VertexId> order;
  /// num_buckets * classes + 1 offsets into `order`; group
  /// b * classes + s is bucket b's class s.
  std::vector<std::size_t> begin;
  unsigned classes = 1;

  std::span<const graph::VertexId> group(std::size_t g) const noexcept {
    return {order.data() + begin[g], begin[g + 1] - begin[g]};
  }
  std::span<const graph::VertexId> bucket(std::size_t b) const noexcept {
    const std::size_t lo = begin[b * classes];
    return {order.data() + lo, begin[(b + 1) * classes] - lo};
  }
};

/// Bin items [0, num_items) by (bucket of key(item), class_of(item)),
/// class_of < classes, with one stable counting sort, reusing `out`'s
/// storage (grow-only) and drawing temporaries from `scratch`. Items
/// keep ascending id order inside each group. Items with key 0 land in
/// bucket 0 (and the kernels skip them). Each class group of the last
/// bucket (the "global memory" one) is additionally sorted by
/// DESCENDING key, ascending id among equal keys, mirroring the paper's
/// sort-then-interleave load balancing for the heaviest vertices.
template <typename KeyFn, typename ClassFn>
void bin_by_key_into(std::size_t num_items, const BucketScheme& scheme,
                     KeyFn&& key, unsigned classes, ClassFn&& class_of,
                     Binned& out, prim::Scratch& scratch,
                     simt::ThreadPool& pool = simt::ThreadPool::global());

/// Self-allocating convenience wrapper with one class (one-off
/// callers, tests).
template <typename KeyFn>
Binned bin_by_key(std::size_t num_items, const BucketScheme& scheme, KeyFn&& key,
                  simt::ThreadPool& pool = simt::ThreadPool::global());

}  // namespace glouvain::core

#include "core/buckets_impl.hpp"
