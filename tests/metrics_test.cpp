// Tests for modularity, move gains, partition bookkeeping, NMI/ARI.
#include <gtest/gtest.h>

#include <cmath>

#include "core/community_weights.hpp"
#include "core/rows.hpp"
#include "gen/cliques.hpp"
#include "gen/er.hpp"
#include "graph/builder.hpp"
#include "metrics/compare.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "simt/thread_pool.hpp"
#include "util/prng.hpp"

namespace glouvain::metrics {
namespace {

using graph::build_csr;
using graph::Community;
using graph::Csr;
using graph::VertexId;
using graph::Weight;

TEST(Modularity, SingletonPartitionOfCompleteGraph) {
  // K4, all singletons: Q = -sum (k_i/2m)^2 = -4 * (3/12)^2 = -0.25.
  const Csr g = gen::ring_of_cliques(1, 4);
  std::vector<Community> singletons{0, 1, 2, 3};
  EXPECT_NEAR(modularity(g, singletons), -0.25, 1e-12);
}

TEST(Modularity, OneBlockIsZero) {
  // Everything in one community: Q = m2/m2 - (m2/m2)^2 = 0.
  const Csr g = gen::ring_of_cliques(4, 4);
  std::vector<Community> one(g.num_vertices(), 0);
  EXPECT_NEAR(modularity(g, one), 0.0, 1e-12);
}

TEST(Modularity, TwoTrianglesBridge) {
  // Two triangles joined by one edge, split at the bridge:
  // m = 7, 2m = 14. in = 6 per triangle; tot = 7 per side.
  // Q = 12/14 - 2*(7/14)^2 = 6/7 - 1/2 = 5/14.
  const Csr g = build_csr(6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
                              {3, 4, 1}, {4, 5, 1}, {3, 5, 1},
                              {2, 3, 1}});
  const std::vector<Community> split{0, 0, 0, 1, 1, 1};
  EXPECT_NEAR(modularity(g, split), 5.0 / 14.0, 1e-12);
}

TEST(Modularity, SelfLoopsCount) {
  // Single vertex with a self-loop, its own community: Q = 1 - 1 = 0.
  const Csr g = build_csr(1, {{0, 0, 2.0}});
  const std::vector<Community> part{0};
  EXPECT_NEAR(modularity(g, part), 0.0, 1e-12);
}

TEST(Modularity, WeightsMatter) {
  // Two vertices, one edge: both communities: Q = -0.5 regardless of w.
  for (double w : {1.0, 2.5, 10.0}) {
    const Csr g = build_csr(2, {{0, 1, w}});
    const std::vector<Community> apart{0, 1};
    EXPECT_NEAR(modularity(g, apart), -0.5, 1e-12) << w;
  }
}

TEST(Modularity, InvariantUnderContraction) {
  const Csr g = gen::erdos_renyi(300, 1200, 21);
  util::Xoshiro256 rng(3);
  std::vector<Community> part(300);
  for (auto& c : part) c = static_cast<Community>(rng.next_below(20));
  const double q_fine = modularity(g, part);

  std::vector<graph::VertexId> new_id;
  const Csr coarse = core::contract_reference(core::PlainRows(g), part,
                                              simt::ThreadPool::global(), &new_id);
  // On the contracted graph each vertex is its own community.
  std::vector<Community> identity(coarse.num_vertices());
  for (VertexId v = 0; v < coarse.num_vertices(); ++v) identity[v] = v;
  EXPECT_NEAR(modularity(coarse, identity), q_fine, 1e-9);
}

TEST(MoveGain, MatchesRecomputedDelta) {
  const Csr g = gen::erdos_renyi(120, 500, 23);
  util::Xoshiro256 rng(5);
  std::vector<Community> part(120);
  for (auto& c : part) c = static_cast<Community>(rng.next_below(10));
  const auto strengths = g.compute_strengths();

  for (int trial = 0; trial < 200; ++trial) {
    const auto v = static_cast<VertexId>(rng.next_below(120));
    const auto target = static_cast<Community>(rng.next_below(10));
    const auto tot = community_totals(g, part);
    const double predicted = move_gain(g, part, tot, strengths, v, target);

    const double before = modularity(g, part);
    auto moved = part;
    moved[v] = target;
    const double after = modularity(g, moved);
    EXPECT_NEAR(predicted, after - before, 1e-10)
        << "v=" << v << " target=" << target;
  }
}

TEST(CommunityTotals, SumToTotalWeight) {
  const Csr g = gen::erdos_renyi(200, 900, 29);
  std::vector<Community> part(200, 0);
  for (VertexId v = 0; v < 200; ++v) part[v] = v % 7;
  const auto tot = community_totals(g, part);
  Weight sum = 0;
  for (auto t : tot) sum += t;
  EXPECT_NEAR(sum, g.total_weight(), 1e-9);
}

TEST(Renumber, DenseAndOrderPreserving) {
  std::vector<Community> labels{7, 3, 7, 9, 3};
  const Community k = renumber(labels);
  EXPECT_EQ(k, 3u);
  // Increasing old label order: 3 -> 0, 7 -> 1, 9 -> 2.
  EXPECT_EQ(labels, (std::vector<Community>{1, 0, 1, 2, 0}));
}

TEST(Renumber, AlreadyDense) {
  std::vector<Community> labels{0, 1, 2, 1};
  EXPECT_EQ(renumber(labels), 3u);
  EXPECT_EQ(labels, (std::vector<Community>{0, 1, 2, 1}));
}

TEST(Flatten, ComposesLevels) {
  const std::vector<Community> lower{0, 0, 1, 2};
  const std::vector<Community> upper{5, 5, 6};
  EXPECT_EQ(flatten(lower, upper), (std::vector<Community>{5, 5, 5, 6}));
}

TEST(PartitionStats, CountsProperties) {
  const std::vector<Community> part{0, 0, 0, 1, 2, 2};
  const auto stats = partition_stats(part);
  EXPECT_EQ(stats.num_communities, 3u);
  EXPECT_EQ(stats.largest, 3u);
  EXPECT_EQ(stats.smallest, 1u);
  EXPECT_EQ(stats.singletons, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_size, 2.0);
}

TEST(Nmi, IdenticalPartitions) {
  const std::vector<Community> a{0, 0, 1, 1, 2};
  EXPECT_NEAR(nmi(a, a), 1.0, 1e-12);
}

TEST(Nmi, PermutedLabelsStillPerfect) {
  const std::vector<Community> a{0, 0, 1, 1, 2, 2};
  const std::vector<Community> b{5, 5, 9, 9, 1, 1};
  EXPECT_NEAR(nmi(a, b), 1.0, 1e-12);
}

TEST(Nmi, IndependentPartitionsNearZero) {
  // a splits by half, b alternates: knowing a tells nothing about b.
  std::vector<Community> a(1000), b(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    a[i] = i < 500 ? 0 : 1;
    b[i] = i % 2;
  }
  EXPECT_LT(nmi(a, b), 0.01);
}

TEST(Nmi, SizeMismatchThrows) {
  const std::vector<Community> a{0, 1};
  const std::vector<Community> b{0};
  EXPECT_THROW(nmi(a, b), std::invalid_argument);
}

TEST(Ari, IdenticalIsOne) {
  const std::vector<Community> a{0, 0, 1, 1, 2};
  EXPECT_NEAR(adjusted_rand_index(a, a), 1.0, 1e-12);
}

TEST(Ari, IndependentNearZero) {
  std::vector<Community> a(2000), b(2000);
  util::Xoshiro256 rng(31);
  for (std::size_t i = 0; i < 2000; ++i) {
    a[i] = static_cast<Community>(rng.next_below(8));
    b[i] = static_cast<Community>(rng.next_below(8));
  }
  EXPECT_NEAR(adjusted_rand_index(a, b), 0.0, 0.05);
}

TEST(Ari, DisagreementLowersScore) {
  std::vector<Community> a{0, 0, 0, 1, 1, 1};
  std::vector<Community> b = a;
  b[2] = 1;  // one vertex misplaced
  const double ari = adjusted_rand_index(a, b);
  EXPECT_LT(ari, 1.0);
  EXPECT_GT(ari, 0.0);
}

}  // namespace
}  // namespace glouvain::metrics
