// Tests for degree binning and the bucket schemes of §4.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/buckets.hpp"
#include "gen/rmat.hpp"
#include "graph/ops.hpp"

namespace glouvain::core {
namespace {

using graph::EdgeIdx;
using graph::VertexId;

TEST(BucketScheme, PaperModoptBoundaries) {
  const auto scheme = BucketScheme::paper_modopt();
  EXPECT_EQ(scheme.num_buckets(), 7u);
  EXPECT_EQ(scheme.bucket_of(1), 0u);
  EXPECT_EQ(scheme.bucket_of(4), 0u);
  EXPECT_EQ(scheme.bucket_of(5), 1u);
  EXPECT_EQ(scheme.bucket_of(8), 1u);
  EXPECT_EQ(scheme.bucket_of(16), 2u);
  EXPECT_EQ(scheme.bucket_of(17), 3u);
  EXPECT_EQ(scheme.bucket_of(32), 3u);
  EXPECT_EQ(scheme.bucket_of(84), 4u);
  EXPECT_EQ(scheme.bucket_of(85), 5u);
  EXPECT_EQ(scheme.bucket_of(319), 5u);
  EXPECT_EQ(scheme.bucket_of(320), 6u);
  EXPECT_EQ(scheme.bucket_of(1000000), 6u);
  // Lane assignment: 2^{k+1} threads for groups 1-4, warp, block, block.
  EXPECT_EQ(scheme.lanes[0], 4u);
  EXPECT_EQ(scheme.lanes[3], 32u);
  EXPECT_EQ(scheme.lanes[4], 32u);
  EXPECT_EQ(scheme.lanes[5], 128u);
  EXPECT_EQ(scheme.lanes[6], 128u);
  EXPECT_EQ(scheme.global_from, 6u);  // only the last bucket off-chip
}

TEST(BucketScheme, PaperAggregationBoundaries) {
  const auto scheme = BucketScheme::paper_aggregation();
  EXPECT_EQ(scheme.num_buckets(), 3u);
  EXPECT_EQ(scheme.bucket_of(1), 0u);
  EXPECT_EQ(scheme.bucket_of(127), 0u);
  EXPECT_EQ(scheme.bucket_of(128), 1u);
  EXPECT_EQ(scheme.bucket_of(479), 1u);
  EXPECT_EQ(scheme.bucket_of(480), 2u);
}

TEST(BucketScheme, AblationSchemes) {
  EXPECT_EQ(BucketScheme::single_lane().num_buckets(), 1u);
  EXPECT_EQ(BucketScheme::single_lane().lanes[0], 1u);
  EXPECT_EQ(BucketScheme::warp_per_vertex().lanes[0], 32u);
}

TEST(BinByKey, EveryItemInItsBucket) {
  gen::RmatParams p;
  p.scale = 12;
  p.edge_factor = 12;
  const auto g = gen::rmat(p, 7);
  const auto scheme = BucketScheme::paper_modopt();
  const Binned binned = bin_by_key(
      g.num_vertices(), scheme, [&](VertexId v) { return g.degree(v); });

  // Partition property: every vertex exactly once.
  std::set<VertexId> seen;
  for (auto v : binned.order) EXPECT_TRUE(seen.insert(v).second);
  EXPECT_EQ(seen.size(), g.num_vertices());

  // Bucket membership respects the scheme boundaries.
  for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
    for (auto v : binned.bucket(b)) {
      EXPECT_EQ(scheme.bucket_of(g.degree(v)), b) << "v=" << v;
    }
  }
}

TEST(BinByKey, HeavyBucketSortedDescending) {
  gen::RmatParams p;
  p.scale = 13;
  p.edge_factor = 16;
  const auto g = gen::rmat(p, 9);
  const auto scheme = BucketScheme::paper_modopt();
  const Binned binned = bin_by_key(
      g.num_vertices(), scheme, [&](VertexId v) { return g.degree(v); });
  auto heavy = binned.bucket(scheme.num_buckets() - 1);
  ASSERT_GT(heavy.size(), 0u) << "R-MAT should produce >319-degree hubs";
  for (std::size_t i = 0; i + 1 < heavy.size(); ++i) {
    EXPECT_GE(g.degree(heavy[i]), g.degree(heavy[i + 1]));
  }
}

TEST(BinByKey, StableWithinIntermediateBuckets) {
  // Equal-degree vertices keep id order in non-final buckets (stable
  // partition), which pins down deterministic processing order.
  const auto g = gen::rmat({.scale = 10, .edge_factor = 8}, 3);
  const auto scheme = BucketScheme::paper_modopt();
  const Binned binned = bin_by_key(
      g.num_vertices(), scheme, [&](VertexId v) { return g.degree(v); });
  for (std::size_t b = 0; b + 1 < scheme.num_buckets(); ++b) {
    auto bucket = binned.bucket(b);
    for (std::size_t i = 0; i + 1 < bucket.size(); ++i) {
      EXPECT_LT(bucket[i], bucket[i + 1]);  // stable = increasing ids
    }
  }
}

TEST(BinByKey, ClassGroupsAreStableAndHeavyGroupsDegreeDescending) {
  // One counting sort by (bucket, class): ascending id inside each
  // group, and each heavy-bucket group by descending degree, ascending
  // id among equal degrees. 32k vertices also take the parallel
  // counting path.
  const auto g = gen::rmat({.scale = 15, .edge_factor = 16}, 9);
  const auto scheme = BucketScheme::paper_modopt();
  constexpr unsigned kClasses = 4;
  const auto degree = [&](VertexId v) { return g.degree(v); };
  const auto class_of = [](VertexId v) { return (v * 7u + 3u) % kClasses; };

  Binned grouped;
  prim::Scratch scratch;
  bin_by_key_into(g.num_vertices(), scheme, degree, kClasses, class_of,
                  grouped, scratch);

  const std::size_t num_groups = scheme.num_buckets() * kClasses;
  std::vector<std::vector<VertexId>> expected(num_groups);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    expected[scheme.bucket_of(g.degree(v)) * kClasses + class_of(v)]
        .push_back(v);
  }
  for (unsigned c = 0; c < kClasses; ++c) {
    auto& heavy = expected[(scheme.num_buckets() - 1) * kClasses + c];
    ASSERT_FALSE(heavy.empty()) << "R-MAT should give every class hubs";
    std::stable_sort(heavy.begin(), heavy.end(), [&](VertexId a, VertexId b) {
      return g.degree(a) > g.degree(b);
    });
  }
  ASSERT_EQ(grouped.begin.size(), num_groups + 1);
  for (std::size_t k = 0; k < num_groups; ++k) {
    const auto group = grouped.group(k);
    EXPECT_TRUE(std::equal(group.begin(), group.end(), expected[k].begin(),
                           expected[k].end()))
        << "group " << k;
  }
  for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
    EXPECT_EQ(grouped.bucket(b).data(), grouped.group(b * kClasses).data());
  }
}

TEST(BinByKey, SingleBucketScheme) {
  const Binned binned = bin_by_key(100, BucketScheme::single_lane(),
                                   [](VertexId v) { return v; });
  EXPECT_EQ(binned.begin[0], 0u);
  EXPECT_EQ(binned.begin[1], 100u);
}

TEST(BinByKey, EmptyInput) {
  const Binned binned = bin_by_key(0, BucketScheme::paper_modopt(),
                                   [](VertexId) { return 1; });
  EXPECT_TRUE(binned.order.empty());
  EXPECT_EQ(binned.begin.size(), 8u);
}

}  // namespace
}  // namespace glouvain::core
