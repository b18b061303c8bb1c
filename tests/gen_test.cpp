// Tests for the synthetic-graph generators: structural validity,
// determinism, and the family-specific properties each generator is
// supposed to deliver (degree skew, planarity-like sparsity, planted
// structure, ...).
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/ba.hpp"
#include "gen/cliques.hpp"
#include "gen/er.hpp"
#include "gen/lfr.hpp"
#include "gen/mesh.hpp"
#include "gen/rgg.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/sbm.hpp"
#include "gen/suite.hpp"
#include "gen/ws.hpp"
#include "graph/ops.hpp"

namespace glouvain::gen {
namespace {

using graph::Csr;
using graph::VertexId;

TEST(ErdosRenyi, SizeAndValidity) {
  const Csr g = erdos_renyi(1000, 5000, 1);
  EXPECT_EQ(g.num_vertices(), 1000u);
  EXPECT_GT(g.num_edges(), 4800u);  // some duplicates merge
  EXPECT_LE(g.num_edges(), 5000u);
  EXPECT_TRUE(graph::validate(g).empty()) << graph::validate(g);
}

TEST(ErdosRenyi, DeterministicBySeed) {
  EXPECT_EQ(erdos_renyi(500, 2000, 7), erdos_renyi(500, 2000, 7));
  EXPECT_NE(erdos_renyi(500, 2000, 7), erdos_renyi(500, 2000, 8));
}

TEST(Rmat, HeavyTailedDegrees) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const Csr g = rmat(p, 3);
  EXPECT_EQ(g.num_vertices(), 4096u);
  EXPECT_TRUE(graph::validate(g).empty());
  const auto stats = graph::degree_stats(g);
  // R-MAT must produce a hub far above the mean: paper's social graphs
  // have max degree orders of magnitude above average.
  EXPECT_GT(static_cast<double>(stats.max_degree), 8 * stats.mean_degree);
  // And the top bucket of the paper's binning should be non-empty.
  EXPECT_GT(stats.bucket_counts[5] + stats.bucket_counts[6], 0u);
}

TEST(Rmat, DeterministicBySeed) {
  RmatParams p;
  p.scale = 10;
  EXPECT_EQ(rmat(p, 5), rmat(p, 5));
}

TEST(BarabasiAlbert, PowerLawTail) {
  const Csr g = barabasi_albert(4000, 5, 4);
  EXPECT_EQ(g.num_vertices(), 4000u);
  EXPECT_TRUE(graph::validate(g).empty());
  const auto stats = graph::degree_stats(g);
  EXPECT_GT(static_cast<double>(stats.max_degree), 5 * stats.mean_degree);
  // Preferential attachment keeps the graph connected.
  EXPECT_EQ(graph::count_components(g), 1u);
}

TEST(WattsStrogatz, DegreeConcentration) {
  const Csr g = watts_strogatz(2000, 3, 0.05, 5);
  EXPECT_TRUE(graph::validate(g).empty());
  const auto stats = graph::degree_stats(g);
  EXPECT_NEAR(stats.mean_degree, 6.0, 0.5);
  EXPECT_LE(stats.max_degree, 20u);
}

TEST(RandomGeometric, SpatialStructure) {
  const Csr g = random_geometric(5000, 0, 6);
  EXPECT_EQ(g.num_vertices(), 5000u);
  EXPECT_TRUE(graph::validate(g).empty());
  const auto stats = graph::degree_stats(g);
  // Connectivity-threshold radius: mean degree ~ 1.44^2 * pi * ln n / pi.
  EXPECT_GT(stats.mean_degree, 4.0);
  EXPECT_LT(stats.mean_degree, 40.0);
}

TEST(RandomGeometric, ExplicitRadius) {
  const Csr small_r = random_geometric(2000, 0.01, 7);
  const Csr large_r = random_geometric(2000, 0.05, 7);
  EXPECT_LT(small_r.num_edges(), large_r.num_edges());
}

TEST(Grid2d, ExactStructure) {
  const Csr von = grid2d(10, 10, false);
  EXPECT_EQ(von.num_vertices(), 100u);
  EXPECT_EQ(von.num_edges(), 2u * 9 * 10);  // horizontal + vertical
  const Csr moore = grid2d(10, 10, true);
  EXPECT_EQ(moore.num_edges(), 2u * 9 * 10 + 2u * 9 * 9);  // + diagonals
  EXPECT_TRUE(graph::validate(moore).empty());
}

TEST(Grid3d, StencilDegrees) {
  const Csr g = grid3d(8, 8, 8, true);
  EXPECT_EQ(g.num_vertices(), 512u);
  EXPECT_TRUE(graph::validate(g).empty());
  const auto stats = graph::degree_stats(g);
  EXPECT_EQ(stats.max_degree, 26u);  // interior of a 26-point stencil
  EXPECT_EQ(stats.min_degree, 7u);   // corner
}

TEST(Grid3d, VonNeumann) {
  const Csr g = grid3d(6, 6, 6, false);
  const auto stats = graph::degree_stats(g);
  EXPECT_EQ(stats.max_degree, 6u);
  EXPECT_EQ(stats.min_degree, 3u);
}

TEST(KktMesh, AddsCouplingEdges) {
  const Csr base = grid3d(8, 8, 8, true);
  const Csr kkt = kkt_mesh(8, 8, 8, 33, 2);
  EXPECT_GT(kkt.num_edges(), base.num_edges());
  EXPECT_TRUE(graph::validate(kkt).empty());
  EXPECT_EQ(kkt.num_vertices(), base.num_vertices());
}

TEST(Road, MostlyDegreeTwoChains) {
  RoadParams p;
  p.grid_nx = 60;
  p.grid_ny = 60;
  p.seed = 11;
  const Csr g = road_network(p);
  EXPECT_TRUE(graph::validate(g).empty());
  const auto stats = graph::degree_stats(g);
  EXPECT_LE(stats.max_degree, 4u);  // lattice + subdivision only
  // Subdivision vertices dominate: mean degree close to 2.
  EXPECT_GT(stats.mean_degree, 1.5);
  EXPECT_LT(stats.mean_degree, 3.0);
  EXPECT_GT(g.num_vertices(), 60u * 60u);  // subdivision added vertices
}

TEST(Sbm, GroundTruthShapes) {
  SbmParams p;
  p.num_vertices = 2048;
  p.num_communities = 16;
  p.seed = 13;
  const SbmResult r = planted_partition(p);
  EXPECT_EQ(r.ground_truth.size(), 2048u);
  EXPECT_TRUE(graph::validate(r.graph).empty());
  const auto max_label =
      *std::max_element(r.ground_truth.begin(), r.ground_truth.end());
  EXPECT_EQ(max_label, 15u);
  // Intra edges must dominate: count them.
  std::uint64_t intra = 0, inter = 0;
  for (VertexId v = 0; v < 2048; ++v) {
    for (auto nb : r.graph.neighbors(v)) {
      (r.ground_truth[v] == r.ground_truth[nb] ? intra : inter) += 1;
    }
  }
  EXPECT_GT(intra, 3 * inter);
}

TEST(Lfr, MixingParameterRespected) {
  LfrParams p;
  p.num_vertices = 4096;
  p.mu = 0.2;
  p.seed = 17;
  const LfrResult r = lfr(p);
  EXPECT_TRUE(graph::validate(r.graph).empty());
  std::uint64_t intra = 0, total = 0;
  for (VertexId v = 0; v < p.num_vertices; ++v) {
    for (auto nb : r.graph.neighbors(v)) {
      intra += (r.ground_truth[v] == r.ground_truth[nb]);
      ++total;
    }
  }
  const double observed_mu = 1.0 - static_cast<double>(intra) / total;
  EXPECT_NEAR(observed_mu, 0.2, 0.08);
}

TEST(Lfr, SkewedDegreesWithCommunities) {
  LfrParams p;
  p.num_vertices = 4096;
  p.seed = 19;
  const LfrResult r = lfr(p);
  const auto stats = graph::degree_stats(r.graph);
  EXPECT_GT(static_cast<double>(stats.max_degree), 3 * stats.mean_degree);
}

TEST(RingOfCliques, ExactCounts) {
  const Csr g = ring_of_cliques(5, 4);
  EXPECT_EQ(g.num_vertices(), 20u);
  // 5 * C(4,2) clique edges + 5 bridges.
  EXPECT_EQ(g.num_edges(), 5u * 6 + 5);
  EXPECT_TRUE(graph::validate(g).empty());
  EXPECT_EQ(graph::count_components(g), 1u);
}

TEST(RingOfCliques, SingleClique) {
  const Csr g = ring_of_cliques(1, 5);
  EXPECT_EQ(g.num_edges(), 10u);
}

class SuiteEntryTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllFamilies, SuiteEntryTest,
                         ::testing::ValuesIn(suite_names()),
                         [](const auto& p) { return p.param; });

TEST_P(SuiteEntryTest, BuildsValidGraphAtTinyScale) {
  const SuiteEntry& entry = suite_entry(GetParam());
  const Csr g = entry.build(/*scale=*/0.02, /*seed=*/1);
  EXPECT_GT(g.num_vertices(), 0u);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_TRUE(graph::validate(g).empty()) << graph::validate(g);
}

TEST_P(SuiteEntryTest, DeterministicBySeed) {
  const SuiteEntry& entry = suite_entry(GetParam());
  EXPECT_EQ(entry.build(0.02, 3), entry.build(0.02, 3));
}

TEST(Suite, UnknownNameThrows) {
  EXPECT_THROW(suite_entry("no-such-graph"), std::invalid_argument);
}

TEST(Suite, CoversPaperFamilies) {
  // One stand-in per family listed in DESIGN.md.
  const auto names = suite_names();
  EXPECT_GE(names.size(), 12u);
}

}  // namespace
}  // namespace glouvain::gen
