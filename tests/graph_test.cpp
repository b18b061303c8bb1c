// Unit tests for the graph substrate: CSR invariants, builder
// canonicalization, file IO round-trips, graph operations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "util/prng.hpp"

namespace glouvain::graph {
namespace {

/// Triangle 0-1-2 plus pendant 3 attached to 2.
Csr small_graph() {
  return build_csr(4, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}});
}

Csr random_graph(VertexId n, std::size_t m, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({static_cast<VertexId>(rng.next_below(n)),
                     static_cast<VertexId>(rng.next_below(n)),
                     1.0 + static_cast<double>(rng.next_below(5))});
  }
  return build_csr(n, std::move(edges));
}

TEST(Builder, SymmetrizesAndCountsDegrees) {
  const Csr g = small_graph();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.num_arcs(), 8u);  // every non-loop edge twice
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_TRUE(validate(g).empty()) << validate(g);
}

TEST(Builder, MergesDuplicateEdges) {
  const Csr g = build_csr(2, {{0, 1, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 6.0);
  EXPECT_DOUBLE_EQ(g.weights(1)[0], 6.0);
  EXPECT_TRUE(validate(g).empty()) << validate(g);
}

TEST(Builder, SelfLoopStoredOnce) {
  const Csr g = build_csr(2, {{0, 0, 2.5}, {0, 1, 1.0}});
  EXPECT_EQ(g.num_loops(), 1u);
  EXPECT_DOUBLE_EQ(g.loop_weight(0), 2.5);
  EXPECT_DOUBLE_EQ(g.loop_weight(1), 0.0);
  // strength counts the loop once; total = 2*1 (edge both dirs) + 2.5.
  EXPECT_DOUBLE_EQ(g.strength(0), 3.5);
  EXPECT_DOUBLE_EQ(g.total_weight(), 4.5);
}

TEST(Builder, DropLoopsOption) {
  BuildOptions opts;
  opts.drop_loops = true;
  const Csr g = build_csr(2, {{0, 0, 2.5}, {0, 1, 1.0}}, opts);
  EXPECT_EQ(g.num_loops(), 0u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, PresymmetrizedInput) {
  BuildOptions opts;
  opts.symmetrize = false;
  const Csr g = build_csr(2, {{0, 1, 1.0}, {1, 0, 1.0}}, opts);
  EXPECT_EQ(g.num_arcs(), 2u);
  EXPECT_TRUE(validate(g).empty()) << validate(g);
}

TEST(Builder, RejectsOutOfRange) {
  EXPECT_THROW(build_csr(2, {{0, 5, 1.0}}), std::out_of_range);
}

TEST(Builder, InfersVertexCount) {
  const Csr g = build_csr({{3, 9, 1.0}});
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.degree(9), 1u);
}

TEST(Builder, EmptyGraph) {
  const Csr g = build_csr(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(Builder, IsolatedVertices) {
  const Csr g = build_csr(10, {{0, 1, 1.0}});
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.degree(5), 0u);
  EXPECT_TRUE(validate(g).empty());
}

TEST(Csr, RowsSortedByNeighbor) {
  const Csr g = random_graph(100, 600, 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(Csr, StrengthsMatchTotalWeight) {
  const Csr g = random_graph(500, 3000, 2);
  const auto strengths = g.compute_strengths();
  Weight sum = 0;
  for (auto s : strengths) sum += s;
  EXPECT_NEAR(sum, g.total_weight(), 1e-9);
}

TEST(Csr, TotalWeightIsBitwiseStableAcrossConstructions) {
  // Non-integer weights: every summation order rounds differently, so
  // one bit pattern over repeated constructions pins a fixed order.
  const VertexId n = 200000;
  util::Xoshiro256 rng(5);
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    for (int k = 0; k < 3; ++k) {
      edges.push_back({v, static_cast<VertexId>(rng.next_below(n)),
                       0.1 + static_cast<double>(rng.next_below(1000)) / 7.0});
    }
  }
  const Csr g = build_csr(n, std::move(edges));
  std::set<std::uint64_t> patterns;
  prim::Scratch scratch;
  for (int rep = 0; rep < 30; ++rep) {
    std::vector<EdgeIdx> offsets(g.offsets().begin(), g.offsets().end());
    std::vector<VertexId> adj(g.adjacency().begin(), g.adjacency().end());
    std::vector<Weight> w(g.edge_weights().begin(), g.edge_weights().end());
    // Both constructors: partials from the heap, and from a Scratch.
    const Csr copy = rep % 2 == 0
                         ? Csr(std::move(offsets), std::move(adj), std::move(w))
                         : Csr(std::move(offsets), std::move(adj), std::move(w),
                               scratch);
    patterns.insert(std::bit_cast<std::uint64_t>(copy.total_weight()));
  }
  EXPECT_EQ(patterns.size(), 1u);
  EXPECT_EQ(*patterns.begin(), std::bit_cast<std::uint64_t>(g.total_weight()));
}

TEST(Validate, DetectsAsymmetry) {
  // Hand-build a broken CSR: arc 0->1 without 1->0.
  Csr broken({0, 1, 1}, {1}, {1.0});
  EXPECT_FALSE(validate(broken).empty());
}

TEST(Validate, DetectsBadWeight) {
  Csr broken({0, 1, 2}, {1, 0}, {0.0, 0.0});
  EXPECT_FALSE(validate(broken).empty());
}

TEST(Ops, DegreeStatsBuckets) {
  const Csr g = small_graph();
  const DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.min_degree, 1u);
  EXPECT_EQ(stats.max_degree, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_degree, 2.0);
  EXPECT_EQ(stats.bucket_counts[0], 4u);  // all degrees <= 4
}

TEST(Ops, PermutePreservesStructure) {
  const Csr g = random_graph(200, 1000, 3);
  std::vector<VertexId> perm(200);
  for (VertexId v = 0; v < 200; ++v) perm[v] = (v * 7 + 3) % 200;  // bijection
  const Csr p = permute(g, perm);
  EXPECT_TRUE(validate(p).empty()) << validate(p);
  EXPECT_EQ(p.num_arcs(), g.num_arcs());
  EXPECT_NEAR(p.total_weight(), g.total_weight(), 1e-9);
  for (VertexId v = 0; v < 200; ++v) EXPECT_EQ(p.degree(perm[v]), g.degree(v));
}

TEST(Ops, CountComponents) {
  const Csr g = build_csr(6, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}});
  EXPECT_EQ(count_components(g), 3u);  // {0,1,2}, {3,4}, {5}
}

class IoRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest -j runs the fixture's tests as
    // concurrent processes, and a shared one is removed under them.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("glouvain_io_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IoRoundTrip, EdgeList) {
  const Csr g = random_graph(100, 400, 6);
  ASSERT_TRUE(try_save_edge_list(g, path("g.txt")).ok());
  const Csr back = try_load_edge_list(path("g.txt")).value();
  EXPECT_EQ(back.num_arcs(), g.num_arcs());
  EXPECT_NEAR(back.total_weight(), g.total_weight(), 1e-6);
}

TEST_F(IoRoundTrip, EdgeListKeepsEveryBitOfAWeight) {
  // 0.1 + 1/7 needs 17 significant digits; at the stream's default
  // precision of six it would read back as 0.242857. Unit weights
  // still print as "1".
  const Csr g = build_csr(3, {{0, 1, 0.1 + 1.0 / 7}, {1, 2, 1.0}});
  ASSERT_TRUE(try_save_edge_list(g, path("w.txt")).ok());
  EXPECT_EQ(try_load_edge_list(path("w.txt")).value(), g);
  std::ifstream in(path("w.txt"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"0 1 0.24285714285714285",
                                             "1 2 1"}));
}

TEST_F(IoRoundTrip, Binary) {
  const Csr g = random_graph(100, 400, 7);
  ASSERT_TRUE(try_save_binary(g, path("g.bin")).ok());
  const Csr back = try_load_binary(path("g.bin")).value();
  EXPECT_EQ(back, g);
}

TEST_F(IoRoundTrip, MatrixMarketSymmetric) {
  std::ofstream out(path("m.mtx"));
  out << "%%MatrixMarket matrix coordinate real symmetric\n"
      << "% comment\n"
      << "3 3 3\n"
      << "2 1 1.5\n"
      << "3 1 2.0\n"
      << "3 2 0.5\n";
  out.close();
  const Csr g = try_load_matrix_market(path("m.mtx")).value();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 2 * (1.5 + 2.0 + 0.5));
  EXPECT_TRUE(validate(g).empty());
}

TEST_F(IoRoundTrip, MatrixMarketPattern) {
  std::ofstream out(path("p.mtx"));
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
      << "2 2 1\n"
      << "2 1\n";
  out.close();
  const Csr g = try_load_matrix_market(path("p.mtx")).value();
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 1.0);
}

TEST_F(IoRoundTrip, Metis) {
  std::ofstream out(path("g.graph"));
  out << "3 2\n"
      << "2 3\n"
      << "1\n"
      << "1\n";
  out.close();
  const Csr g = try_load_metis(path("g.graph")).value();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(validate(g).empty());
}

TEST_F(IoRoundTrip, MetisWeighted) {
  std::ofstream out(path("w.graph"));
  out << "2 1 1\n"
      << "2 3.5\n"
      << "1 3.5\n";
  out.close();
  const Csr g = try_load_metis(path("w.graph")).value();
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 3.5);
}

TEST_F(IoRoundTrip, AutoDispatch) {
  const Csr g = random_graph(40, 100, 8);
  ASSERT_TRUE(try_save_binary(g, path("a.bin")).ok());
  EXPECT_EQ(try_load_auto(path("a.bin")).value(), g);
  ASSERT_TRUE(try_save_edge_list(g, path("a.txt")).ok());
  EXPECT_EQ(try_load_auto(path("a.txt")).value().num_arcs(), g.num_arcs());
}

TEST_F(IoRoundTrip, MissingFileFails) {
  EXPECT_FALSE(try_load_edge_list(path("nope.txt")).ok());
  EXPECT_FALSE(try_load_binary(path("nope.bin")).ok());
}

TEST_F(IoRoundTrip, BadMagicFails) {
  std::ofstream out(path("bad.bin"), std::ios::binary);
  out << "NOTMAGIC overlong";
  out.close();
  EXPECT_FALSE(try_load_binary(path("bad.bin")).ok());
}

void expect_vertex_overflow(const util::Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.to_string().find("exceeds the 32-bit vertex-id space"),
            std::string::npos)
      << status.to_string();
}

TEST_F(IoRoundTrip, EdgeListRejectsOversizedVertexId) {
  // 5e9 does not fit a 32-bit VertexId; a silent static_cast would
  // wrap it onto an unrelated vertex.
  std::ofstream out(path("big.txt"));
  out << "0 1 1.0\n5000000000 0 1.0\n";
  out.close();
  const auto g = try_load_edge_list(path("big.txt"));
  expect_vertex_overflow(g.status());
}

TEST_F(IoRoundTrip, MatrixMarketRejectsOversizedHeader) {
  std::ofstream out(path("big.mtx"));
  out << "%%MatrixMarket matrix coordinate real symmetric\n"
      << "5000000000 5000000000 1\n"
      << "2 1 1.0\n";
  out.close();
  const auto g = try_load_matrix_market(path("big.mtx"));
  expect_vertex_overflow(g.status());
}

TEST_F(IoRoundTrip, MetisRejectsOversizedHeader) {
  std::ofstream out(path("big.graph"));
  out << "5000000000 1\n";
  out.close();
  const auto g = try_load_metis(path("big.graph"));
  expect_vertex_overflow(g.status());
}

TEST_F(IoRoundTrip, BinaryRejectsOversizedSectionCount) {
  // Craft a file whose offsets section claims far more entries than
  // bytes remain: the length prefix must be bounded by the file size,
  // never trusted into a resize.
  std::ofstream out(path("huge.bin"), std::ios::binary);
  out << "GLOUBIN1";
  const std::uint64_t bogus_count = 1ull << 40;
  out.write(reinterpret_cast<const char*>(&bogus_count), sizeof bogus_count);
  const std::uint64_t filler = 0;
  out.write(reinterpret_cast<const char*>(&filler), sizeof filler);
  out.close();
  const auto g = try_load_binary(path("huge.bin"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().to_string().find("section claims"), std::string::npos)
      << g.status().to_string();
}

}  // namespace
}  // namespace glouvain::graph
