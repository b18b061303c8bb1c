// End-to-end tests of the GPU-style Louvain driver.
#include <gtest/gtest.h>

#include "core/louvain.hpp"
#include "graph/builder.hpp"
#include "gen/cliques.hpp"
#include "gen/er.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "metrics/compare.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "seq/louvain.hpp"

namespace glouvain::core {
namespace {

using graph::Community;
using graph::VertexId;

TEST(CoreLouvain, RecoversRingOfCliques) {
  const auto g = gen::ring_of_cliques(16, 8);
  const Result result = louvain(g);
  auto labels = result.community;
  EXPECT_EQ(metrics::renumber(labels), 16u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(labels[v], labels[(v / 8) * 8]);
  }
}

TEST(CoreLouvain, ReportedModularityMatchesRecomputation) {
  const auto g = gen::rmat({.scale = 12, .edge_factor = 8}, 3);
  const Result result = louvain(g);
  EXPECT_NEAR(result.modularity, metrics::modularity(g, result.community), 1e-7);
}

TEST(CoreLouvain, QualityWithinOnePercentOfSequentialOnStructuredGraphs) {
  // The paper's headline quality claim: GPU modularity is never more
  // than ~1-2% below sequential (Figure 1 discussion) on graphs with
  // real community structure.
  const auto lfr = gen::lfr({.num_vertices = 4096, .mu = 0.3, .seed = 5});
  const auto sbm = gen::planted_partition(
      {.num_vertices = 4096, .num_communities = 32, .seed = 7});
  for (const auto* g : {&lfr.graph, &sbm.graph}) {
    const double q_seq = seq::louvain(*g).modularity;
    const double q_core = louvain(*g).modularity;
    EXPECT_GT(q_core, 0.98 * q_seq);
  }
}

TEST(CoreLouvain, FindsPlantedPartition) {
  const auto sbm = gen::planted_partition({.num_vertices = 4096,
                                           .num_communities = 32,
                                           .intra_degree = 14,
                                           .inter_degree = 1.5,
                                           .seed = 9});
  const Result result = louvain(sbm.graph);
  EXPECT_GT(metrics::nmi(result.community, sbm.ground_truth), 0.95);
  EXPECT_GT(metrics::adjusted_rand_index(result.community, sbm.ground_truth), 0.9);
}

TEST(CoreLouvain, LevelReportsAreCoherent) {
  const auto g = gen::lfr({.num_vertices = 2048, .seed = 11});
  const Result result = louvain(g.graph);
  ASSERT_GE(result.levels.size(), 2u);
  EXPECT_EQ(result.levels[0].vertices, g.graph.num_vertices());
  for (std::size_t i = 0; i + 1 < result.levels.size(); ++i) {
    // Graph shrinks level over level.
    EXPECT_LT(result.levels[i + 1].vertices, result.levels[i].vertices);
    // Modularity never decreases across levels.
    EXPECT_LE(result.levels[i].modularity_after,
              result.levels[i + 1].modularity_after + 1e-9);
  }
}

TEST(CoreLouvain, TrivialGraphs) {
  EXPECT_EQ(louvain(graph::build_csr(0, {})).community.size(), 0u);
  const Result lone = louvain(graph::build_csr(3, {}));
  EXPECT_EQ(lone.community.size(), 3u);  // three isolated singletons
  auto labels = lone.community;
  EXPECT_EQ(metrics::renumber(labels), 3u);
}

TEST(CoreLouvain, DeterministicWithSingleWorker) {
  Config cfg;
  cfg.threads = 1;
  const auto g = gen::rmat({.scale = 10, .edge_factor = 8}, 13);
  Louvain a(cfg), b(cfg);
  const Result ra = a.run(g);
  const Result rb = b.run(g);
  EXPECT_EQ(ra.community, rb.community);
  EXPECT_DOUBLE_EQ(ra.modularity, rb.modularity);
}

TEST(CoreLouvain, RelaxedStrategyQualityClose) {
  // Paper §5: relaxed vs bucketed modularity differs by < 0.13% on
  // average; allow 2% on one graph.
  const auto g = gen::lfr({.num_vertices = 2048, .mu = 0.25, .seed = 15});
  Config bucketed;
  Config relaxed;
  relaxed.update = UpdateStrategy::Relaxed;
  const double qb = louvain(g.graph, bucketed).modularity;
  const double qr = louvain(g.graph, relaxed).modularity;
  EXPECT_GT(qr, 0.98 * qb);
}

TEST(CoreLouvain, ThresholdScheduleShortensPhases) {
  const auto g = gen::rmat({.scale = 12, .edge_factor = 12}, 17);
  Config coarse;
  coarse.thresholds.t_bin = 1e-1;
  coarse.thresholds.adaptive_limit = 256;  // t_bin while n > 256
  Config fine;
  fine.thresholds.adaptive = false;  // always t_final
  const Result rc = louvain(g, coarse);
  const Result rf = louvain(g, fine);
  ASSERT_FALSE(rc.levels.empty());
  ASSERT_FALSE(rf.levels.empty());
  EXPECT_LE(rc.levels[0].iterations, rf.levels[0].iterations);
  EXPECT_GT(rc.modularity, 0.9 * rf.modularity);
}

TEST(CoreLouvain, NoSharedSpillsWithPaperBuckets) {
  // The paper's bucket boundaries are chosen so groups 1-6 fit in the
  // 48 KiB shared memory; the device must report zero spills.
  const auto g = gen::rmat({.scale = 12, .edge_factor = 16}, 19);
  const Result result = louvain(g);
  EXPECT_EQ(result.device.shared_spills, 0u);
}

TEST(CoreLouvain, ReusableRunner) {
  Louvain runner;
  const auto g1 = gen::ring_of_cliques(8, 5);
  const auto g2 = gen::erdos_renyi(500, 2500, 21);
  const Result r1 = runner.run(g1);
  const Result r2 = runner.run(g2);
  EXPECT_GT(r1.modularity, 0.7);
  EXPECT_NEAR(r2.modularity, metrics::modularity(g2, r2.community), 1e-7);
}

TEST(CoreLouvain, TepsPopulated) {
  const auto g = gen::erdos_renyi(3000, 20000, 23);
  const Result result = louvain(g);
  EXPECT_GT(result.first_phase_teps, 0.0);
}

TEST(CoreLouvain, MaxLevelsRespected) {
  Config cfg;
  cfg.max_levels = 1;
  const auto g = gen::lfr({.num_vertices = 2048, .seed = 25});
  const Result result = louvain(g.graph, cfg);
  EXPECT_EQ(result.levels.size(), 1u);
}

}  // namespace
}  // namespace glouvain::core
