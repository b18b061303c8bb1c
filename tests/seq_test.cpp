// Tests for the sequential Louvain baseline.
#include <gtest/gtest.h>

#include "gen/cliques.hpp"
#include "gen/er.hpp"
#include "gen/sbm.hpp"
#include "metrics/compare.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "graph/builder.hpp"
#include "seq/louvain.hpp"

namespace glouvain::seq {
namespace {

using graph::Community;
using graph::VertexId;

TEST(SeqLouvain, RecoversRingOfCliques) {
  const auto g = gen::ring_of_cliques(12, 6);
  const auto result = louvain(g);
  // Each clique must be one community.
  auto labels = result.community;
  EXPECT_EQ(metrics::renumber(labels), 12u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(labels[v], labels[(v / 6) * 6]) << v;
  }
  EXPECT_GT(result.modularity, 0.8);
}

TEST(SeqLouvain, ReportedModularityMatchesRecomputation) {
  const auto g = gen::erdos_renyi(800, 4000, 3);
  const auto result = louvain(g);
  EXPECT_NEAR(result.modularity, metrics::modularity(g, result.community), 1e-9);
}

TEST(SeqLouvain, LevelModularityMonotone) {
  const auto g = gen::planted_partition({.num_vertices = 2000,
                                         .num_communities = 20,
                                         .intra_degree = 10,
                                         .inter_degree = 2,
                                         .seed = 5})
                     .graph;
  const auto result = louvain(g);
  ASSERT_GE(result.levels.size(), 1u);
  for (std::size_t i = 0; i + 1 < result.levels.size(); ++i) {
    EXPECT_LE(result.levels[i].modularity_after,
              result.levels[i + 1].modularity_after + 1e-9);
  }
  // And each phase improves on its entry modularity.
  for (const auto& level : result.levels) {
    EXPECT_GE(level.modularity_after, level.modularity_before - 1e-9);
  }
}

TEST(SeqLouvain, FindsPlantedPartition) {
  const auto sbm = gen::planted_partition({.num_vertices = 2048,
                                           .num_communities = 16,
                                           .intra_degree = 14,
                                           .inter_degree = 1.5,
                                           .seed = 7});
  const auto result = louvain(sbm.graph);
  EXPECT_GT(metrics::nmi(result.community, sbm.ground_truth), 0.9);
}

TEST(SeqLouvain, SingleVertexAndEmptyGraph) {
  const auto empty = graph::build_csr(0, {});
  const auto r0 = louvain(empty);
  EXPECT_EQ(r0.community.size(), 0u);

  const auto lone = graph::build_csr(1, {});
  const auto r1 = louvain(lone);
  EXPECT_EQ(r1.community.size(), 1u);
}

TEST(SeqLouvain, DisconnectedComponentsStaySeparate) {
  // Two disjoint triangles: optimal = one community per triangle.
  const auto g = graph::build_csr(
      6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}});
  const auto result = louvain(g);
  auto labels = result.community;
  EXPECT_EQ(metrics::renumber(labels), 2u);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(SeqLouvain, AdaptiveThresholdIsFasterOrEqual) {
  const auto g = gen::erdos_renyi(3000, 20000, 11);
  Config fine;  // adaptive=false: always t_final
  Config adaptive;
  adaptive.thresholds.adaptive = true;
  adaptive.thresholds.adaptive_limit = 1000;  // force t_bin on level 0
  const auto r_fine = louvain(g, fine);
  const auto r_adapt = louvain(g, adaptive);
  // Coarser early threshold means no more sweeps in the first phase.
  ASSERT_FALSE(r_fine.levels.empty());
  ASSERT_FALSE(r_adapt.levels.empty());
  EXPECT_LE(r_adapt.levels[0].iterations, r_fine.levels[0].iterations);
  // Quality stays within a couple of percent (paper: ~0.13% average).
  EXPECT_GT(r_adapt.modularity, 0.95 * r_fine.modularity);
}

TEST(OptimizePhase, AllSingletonsWhenNoGainPossible) {
  // A star's optimum is one community; a single sweep must move leaves.
  const auto star = graph::build_csr(
      5, {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}});
  std::vector<Community> community;
  const double q = optimize_phase(star, community, 1e-9, 100).modularity;
  auto labels = community;
  EXPECT_EQ(metrics::renumber(labels), 1u);
  EXPECT_GE(q, -1e-12);
}

TEST(OptimizePhase, RespectsMaxSweeps) {
  const auto g = gen::erdos_renyi(500, 3000, 13);
  std::vector<Community> community;
  const int sweeps = optimize_phase(g, community, 0.0, 3).sweeps;
  EXPECT_LE(sweeps, 3);
}

TEST(SeqLouvain, DeterministicAcrossRuns) {
  const auto g = gen::erdos_renyi(600, 3000, 17);
  const auto a = louvain(g);
  const auto b = louvain(g);
  EXPECT_EQ(a.community, b.community);
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
}

TEST(SeqLouvain, TepsPopulated) {
  const auto g = gen::erdos_renyi(2000, 10000, 19);
  const auto result = louvain(g);
  EXPECT_GT(result.first_phase_teps, 0.0);
}

}  // namespace
}  // namespace glouvain::seq
