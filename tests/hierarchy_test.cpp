// Tests for the dendrogram API, partition IO, and occupancy analysis.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/louvain.hpp"
#include "core/occupancy.hpp"
#include "gen/cliques.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "metrics/dendrogram.hpp"
#include "metrics/partition.hpp"
#include "metrics/partition_io.hpp"
#include "plm/plm.hpp"
#include "seq/louvain.hpp"
#include "shard/engine.hpp"

namespace glouvain {
namespace {

using graph::Community;
using graph::VertexId;

TEST(Dendrogram, ComposesLevels) {
  metrics::Dendrogram d;
  d.push_level({0, 0, 1, 1, 2});   // 5 vertices -> 3 communities
  d.push_level({0, 1, 1});         // 3 -> 2
  d.push_level({0, 0});            // 2 -> 1
  EXPECT_EQ(d.num_levels(), 3u);
  EXPECT_EQ(d.num_vertices(), 5u);
  EXPECT_EQ(d.community_at_level(0), (std::vector<Community>{0, 0, 1, 1, 2}));
  EXPECT_EQ(d.community_at_level(1), (std::vector<Community>{0, 0, 1, 1, 1}));
  EXPECT_EQ(d.community_at_level(2), (std::vector<Community>{0, 0, 0, 0, 0}));
  EXPECT_EQ(d.communities_at_level(1), 2u);
}

TEST(Dendrogram, RejectsMismatchedDomain) {
  metrics::Dendrogram d;
  d.push_level({0, 1, 1});  // range = 2
  EXPECT_THROW(d.push_level({0, 1, 2}), std::invalid_argument);  // domain 3 != 2
}

TEST(Dendrogram, OutOfRangeLevelThrows) {
  metrics::Dendrogram d;
  d.push_level({0, 0});
  EXPECT_THROW(d.community_at_level(1), std::out_of_range);
}

class DendrogramCapture : public ::testing::TestWithParam<int> {};
std::string algo_name(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"core", "seq", "plm", "shard"};
  return kNames[info.param];
}
INSTANTIATE_TEST_SUITE_P(Algos, DendrogramCapture,
                         ::testing::Values(0, 1, 2, 3), algo_name);

TEST_P(DendrogramCapture, LastLevelEqualsFinalCommunity) {
  const auto bench = gen::lfr({.num_vertices = 2048, .seed = 3});
  detect::Result result;
  switch (GetParam()) {
    case 0: result = core::louvain(bench.graph); break;
    case 1: result = seq::louvain(bench.graph); break;
    case 2: result = plm::louvain(bench.graph); break;
    default: {
      shard::Config cfg;
      cfg.shards = 4;
      cfg.min_shard_vertices = 64;  // really shard 2k vertices
      const shard::Result sharded = shard::louvain(bench.graph, cfg);
      ASSERT_EQ(sharded.shards_used, 4u);
      ASSERT_GT(sharded.exchange_rounds, 0);
      result = sharded;
      break;
    }
  }
  ASSERT_GT(result.dendrogram.num_levels(), 0u);
  EXPECT_EQ(result.dendrogram.num_levels(), result.levels.size());
  EXPECT_EQ(result.dendrogram.community_at_level(result.dendrogram.num_levels() - 1),
            result.community);
  // Community count shrinks (weakly) level over level.
  for (std::size_t l = 0; l + 1 < result.dendrogram.num_levels(); ++l) {
    EXPECT_GE(result.dendrogram.communities_at_level(l),
              result.dendrogram.communities_at_level(l + 1));
  }
}

/// Writes `text` to a file private to the running test; returns its path.
std::string partition_file(const std::string& text) {
  const std::string path =
      testing::TempDir() + "/glouvain_pio_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt";
  std::ofstream(path) << text;
  return path;
}

TEST(PartitionIo, RoundTrip) {
  const std::string path = partition_file("");
  const std::vector<Community> part{3, 1, 4, 1, 0};
  ASSERT_TRUE(metrics::save_partition(part, path).ok());
  const auto loaded = metrics::load_partition(path, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(*loaded, part);
  std::filesystem::remove(path);
}

TEST(PartitionIo, MissingVerticesAreInvalid) {
  const std::string path = partition_file("# comment\n0 2\n\n2 1\n");
  const auto part = metrics::load_partition(path, 3);  // vertex 1 has no line
  EXPECT_EQ(part.status().code(), util::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(PartitionIo, MissingFileIsNotFound) {
  const auto part = metrics::load_partition("/nonexistent/p.txt", 1);
  EXPECT_EQ(part.status().code(), util::StatusCode::kNotFound);
}

TEST(PartitionIo, MalformedLineIsInvalid) {
  const std::string path = partition_file("0 0\n1 x\n");
  const auto part = metrics::load_partition(path, 2);
  EXPECT_EQ(part.status().code(), util::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(PartitionIo, VertexOutOfRangeIsInvalid) {
  const std::string path = partition_file("0 0\n1 0\n2 0\n");
  const auto part = metrics::load_partition(path, 2);
  EXPECT_EQ(part.status().code(), util::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(PartitionIo, LabelOutOfRangeIsInvalid) {
  // 2^32 - 1 would wrap `label + 1` to 0 in a consumer sizing per-label
  // arrays (gen::churn's member lists).
  const std::string path = partition_file("0 4294967295\n1 0\n");
  const auto part = metrics::load_partition(path, 2);
  EXPECT_EQ(part.status().code(), util::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(PartitionIo, UnwritablePathIsIoError) {
  const util::Status saved =
      metrics::save_partition({0, 0}, "/nonexistent/dir/p.txt");
  EXPECT_EQ(saved.code(), util::StatusCode::kIoError);
}

TEST(Occupancy, ExactOnUniformDegrees) {
  // 4-regular ring: bucket 0 (lanes 4) -> one full round, 100%.
  const auto g = gen::ring_of_cliques(1, 5);  // K5: degree 4 everywhere
  const auto report =
      core::analyze_occupancy(g, core::BucketScheme::paper_modopt());
  EXPECT_DOUBLE_EQ(report.overall, 1.0);
}

TEST(Occupancy, PartialLastRound) {
  // Star hub degree 5 -> bucket 1 (8 lanes): 5/8; leaves degree 1 in
  // bucket 0 (4 lanes): 1/4.
  std::vector<graph::Edge> edges;
  for (VertexId leaf = 1; leaf <= 5; ++leaf) edges.push_back({0, leaf, 1.0});
  const auto g = graph::build_csr(6, std::move(edges));
  const auto report =
      core::analyze_occupancy(g, core::BucketScheme::paper_modopt());
  EXPECT_DOUBLE_EQ(report.buckets[1].occupancy, 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(report.buckets[0].occupancy, 1.0 / 4.0);
  // overall = (5 + 5*1) / (8 + 5*4)
  EXPECT_DOUBLE_EQ(report.overall, 10.0 / 28.0);
}

TEST(Occupancy, SingleLaneIsAlwaysFull) {
  const auto g = gen::rmat({.scale = 10, .edge_factor = 8}, 7);
  const auto report =
      core::analyze_occupancy(g, core::BucketScheme::single_lane());
  EXPECT_DOUBLE_EQ(report.overall, 1.0);
}

TEST(Occupancy, PaperSchemeBeatsWarpPerVertexOnLowDegreeGraphs) {
  // Road-like degree ~2: 32 lanes per vertex wastes ~94% of slots.
  std::vector<graph::Edge> edges;
  for (VertexId v = 0; v + 1 < 1000; ++v) edges.push_back({v, v + 1, 1.0});
  const auto path = graph::build_csr(1000, std::move(edges));
  const auto paper =
      core::analyze_occupancy(path, core::BucketScheme::paper_modopt());
  const auto warp =
      core::analyze_occupancy(path, core::BucketScheme::warp_per_vertex());
  EXPECT_GT(paper.overall, 0.4);
  EXPECT_LT(warp.overall, 0.1);
}

}  // namespace
}  // namespace glouvain
