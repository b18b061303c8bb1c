// Tests for the zg compressed-storage subsystem (DESIGN.md §12):
// varint/zigzag codec properties, ZCsr round-trips, container io, and
// the end-to-end guarantee the whole layer rests on — Louvain
// partitions bitwise-identical to the plain-CSR path whether level 0
// reads plain, compressed or mapped rows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "core/louvain.hpp"
#include "detect/detector.hpp"
#include "gen/cliques.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "graph/builder.hpp"
#include "seq/louvain.hpp"
#include "util/prng.hpp"
#include "zg/container.hpp"
#include "zg/varint.hpp"
#include "zg/zcsr.hpp"

namespace glouvain::zg {
namespace {

using graph::Community;
using graph::Csr;
using graph::Edge;
using graph::VertexId;
using graph::Weight;

// ---------------------------------------------------------------- codec

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {
      0,
      1,
      127,
      128,
      16383,
      16384,
      (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 53,
      std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    const std::size_t written = varint_append(buf, v);
    EXPECT_EQ(written, buf.size()) << v;
    EXPECT_EQ(written, varint_size(v)) << v;
    EXPECT_LE(written, kMaxVarintBytes) << v;
    const std::uint8_t* p = buf.data();
    EXPECT_EQ(varint_read(p), v);
    EXPECT_EQ(static_cast<std::size_t>(p - buf.data()), buf.size()) << v;
  }
}

TEST(Varint, RoundTripsRandomStream) {
  util::Xoshiro256 rng(17);
  std::vector<std::uint64_t> values;
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 5000; ++i) {
    // Mix magnitudes: shift a full-width draw by a random bit count so
    // every varint length is exercised.
    const std::uint64_t v = rng.next() >> (rng.next_below(64));
    values.push_back(v);
    varint_append(buf, v);
  }
  const std::uint8_t* p = buf.data();
  for (const std::uint64_t v : values) EXPECT_EQ(varint_read(p), v);
  EXPECT_EQ(static_cast<std::size_t>(p - buf.data()), buf.size());
}

TEST(Zigzag, MapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  EXPECT_EQ(zigzag_encode(2), 4u);
}

TEST(Zigzag, RoundTripsExtremes) {
  const std::int64_t values[] = {
      0,  1,  -1, 63, -64, 8191, -8192,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.next());
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

// ---------------------------------------------------------------- zcsr

Csr random_graph(VertexId n, std::size_t m, std::uint64_t seed,
                 bool fractional_weights = false) {
  util::Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    const double w = fractional_weights
                         ? 0.25 + static_cast<double>(rng.next_below(1000)) / 64.0
                         : 1.0 + static_cast<double>(rng.next_below(5));
    edges.push_back({static_cast<VertexId>(rng.next_below(n)),
                     static_cast<VertexId>(rng.next_below(n)), w});
  }
  return graph::build_csr(n, std::move(edges));
}

void expect_bitwise_equal(const Csr& back, const Csr& g) {
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_arcs(), g.num_arcs());
  const auto go = g.offsets();
  const auto bo = back.offsets();
  for (std::size_t i = 0; i < go.size(); ++i) EXPECT_EQ(bo[i], go[i]) << i;
  const auto ga = g.adjacency();
  const auto ba = back.adjacency();
  for (std::size_t i = 0; i < ga.size(); ++i) EXPECT_EQ(ba[i], ga[i]) << i;
  const auto gw = g.edge_weights();
  const auto bw = back.edge_weights();
  for (std::size_t i = 0; i < gw.size(); ++i) {
    // Bitwise, not approximate: the decode must reproduce the exact
    // doubles or downstream modularity arithmetic diverges.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bw[i]),
              std::bit_cast<std::uint64_t>(gw[i]))
        << i;
  }
}

void expect_round_trips(const Csr& g) {
  const ZCsr z = ZCsr::encode(g);
  EXPECT_EQ(z.num_vertices(), g.num_vertices());
  EXPECT_EQ(z.num_arcs(), g.num_arcs());
  EXPECT_EQ(z.num_loops(), g.num_loops());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(z.total_weight()),
            std::bit_cast<std::uint64_t>(g.total_weight()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(z.degree(v), g.degree(v)) << v;
  }
  expect_bitwise_equal(z.decode_all(), g);
}

TEST(ZCsr, RoundTripsDegreeZeroRows) {
  // All-isolated and isolated-interleaved graphs: the 0x00 row case.
  expect_round_trips(graph::build_csr(5, {}));
  expect_round_trips(
      graph::build_csr(7, {{1, 3, 1.0}, {5, 3, 1.0}}));  // 0,2,4,6 isolated
}

TEST(ZCsr, RoundTripsDegreeOneAndHubRows) {
  // Star: one hub row with 400 neighbours, 400 degree-1 rows. The hub
  // exercises long delta runs, the leaves the single-neighbour prefix.
  std::vector<Edge> edges;
  for (VertexId leaf = 1; leaf <= 400; ++leaf) edges.push_back({0, leaf, 1.0});
  expect_round_trips(graph::build_csr(401, std::move(edges)));
}

TEST(ZCsr, RoundTripsSelfLoops) {
  expect_round_trips(graph::build_csr(
      4, {{0, 0, 2.0}, {0, 1, 1.0}, {2, 2, 3.0}, {2, 3, 1.0}}));
}

TEST(ZCsr, SelectsCheapestWeightMode) {
  // Unweighted -> kUniform (zero weight bytes).
  const Csr uniform = gen::ring_of_cliques(6, 5);
  EXPECT_EQ(ZCsr::encode(uniform).weight_mode(), WeightMode::kUniform);
  // Small positive integers -> kIntegralVarint.
  EXPECT_EQ(ZCsr::encode(random_graph(64, 256, 4)).weight_mode(),
            WeightMode::kIntegralVarint);
  // Fractional weights -> kRaw.
  EXPECT_EQ(ZCsr::encode(random_graph(64, 256, 4, true)).weight_mode(),
            WeightMode::kRaw);
}

TEST(ZCsr, RoundTripsEveryWeightMode) {
  expect_round_trips(gen::ring_of_cliques(8, 6));          // uniform
  expect_round_trips(random_graph(200, 900, 11));          // integral
  expect_round_trips(random_graph(200, 900, 12, true));    // raw
}

TEST(ZCsr, CompressesSortedAdjacency) {
  const Csr g = gen::rmat({.scale = 12, .edge_factor = 8.0}, 5);
  const ZCsr z = ZCsr::encode(g);
  EXPECT_LT(z.bytes_stream() + z.bytes_index(), z.plain_bytes() / 2)
      << "adjacency must shrink at least 2x on an unweighted rmat graph";
}

TEST(ZCsr, CursorAtMatchesSequentialCursor) {
  const Csr g = random_graph(500, 2500, 9);
  const ZCsr z = ZCsr::encode(g);
  std::vector<VertexId> sa(z.max_degree()), ra(z.max_degree());
  std::vector<Weight> sw(z.max_degree()), rw(z.max_degree());
  ZCsr::Cursor seq_cur = z.cursor();
  for (VertexId v = 0; v < z.num_vertices(); ++v) {
    ASSERT_EQ(seq_cur.vertex(), v);
    seq_cur.decode_into(sa.data(), sw.data());
    z.decode_row(v, ra.data(), rw.data());  // cursor_at + decode
    const std::uint32_t deg = z.degree(v);
    for (std::uint32_t i = 0; i < deg; ++i) {
      EXPECT_EQ(ra[i], sa[i]) << v;
      EXPECT_EQ(rw[i], sw[i]) << v;
    }
  }
}

TEST(ZCsr, CursorSkipAndNullWeightDecode) {
  const Csr g = random_graph(300, 1200, 21);
  const ZCsr z = ZCsr::encode(g);
  // Skip the first half, decode the rest with a null weight buffer.
  ZCsr::Cursor c = z.cursor();
  for (VertexId v = 0; v < 150; ++v) c.skip_row();
  std::vector<VertexId> adj(z.max_degree());
  for (VertexId v = 150; v < z.num_vertices(); ++v) {
    ASSERT_EQ(c.vertex(), v);
    c.decode_into(adj.data(), nullptr);
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) EXPECT_EQ(adj[i], nbrs[i]);
  }
}

// ------------------------------------------------------------ container

class ZgContainer : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest -j runs the fixture's tests as
    // concurrent processes, and a shared one is removed under them.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("glouvain_zg_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(ZgContainer, SaveLoadRoundTrips) {
  const Csr g = random_graph(400, 1600, 31);
  const ZCsr z = ZCsr::encode(g);
  ASSERT_TRUE(save(z, path("g.zg")).ok());
  const auto back = load(path("g.zg"));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->num_loops(), z.num_loops());
  EXPECT_EQ(back->weight_mode(), z.weight_mode());
  expect_bitwise_equal(back->decode_all(), g);
}

TEST_F(ZgContainer, MappedOpenRoundTrips) {
  const Csr g = random_graph(400, 1600, 32, /*fractional_weights=*/true);
  const ZCsr z = ZCsr::encode(g);
  ASSERT_TRUE(save(z, path("m.zg")).ok());
  auto mapped = MappedGraph::open(path("m.zg"));
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  expect_bitwise_equal(mapped->zcsr().decode_all(), g);
}

TEST_F(ZgContainer, MissingFileIsNotFound) {
  const auto missing = load(path("nope.zg"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST_F(ZgContainer, BadMagicIsInvalidArgument) {
  std::ofstream out(path("bad.zg"), std::ios::binary);
  out << "NOTZ" << std::string(96, '-');  // longer than the 64-byte header
  out.close();
  const auto bad = load(path("bad.zg"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().to_string().find("bad magic"), std::string::npos);
}

TEST_F(ZgContainer, TruncationIsRejected) {
  const ZCsr z = ZCsr::encode(random_graph(300, 1200, 33));
  ASSERT_TRUE(save(z, path("t.zg")).ok());
  // Chop the stream section short: the header's section lengths no
  // longer fit the file, which must fail cleanly, not over-read.
  const auto full = std::filesystem::file_size(path("t.zg"));
  std::filesystem::resize_file(path("t.zg"), full - 16);
  EXPECT_FALSE(load(path("t.zg")).ok());
  EXPECT_FALSE(MappedGraph::open(path("t.zg")).ok());
}

TEST_F(ZgContainer, CorruptVersionIsInvalidArgument) {
  const ZCsr z = ZCsr::encode(random_graph(50, 120, 34));
  ASSERT_TRUE(save(z, path("v.zg")).ok());
  std::fstream f(path("v.zg"),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);  // version field follows the 4-byte magic
  const std::uint32_t bogus = 999;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  f.close();
  const auto bad = load(path("v.zg"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().to_string().find("version"), std::string::npos);
}

// ----------------------------------------------------- bitwise louvain

Csr sbm_graph() {
  gen::SbmParams p;
  p.num_vertices = 1 << 11;
  p.num_communities = 16;
  p.intra_degree = 12.0;
  p.inter_degree = 2.0;
  p.seed = 42;
  return gen::planted_partition(p).graph;
}

void expect_same_result(const std::vector<Community>& a_labels, double a_mod,
                        const std::vector<Community>& b_labels, double b_mod) {
  EXPECT_EQ(a_labels, b_labels);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a_mod),
            std::bit_cast<std::uint64_t>(b_mod));
}

TEST(ZLouvain, CoreRunZIsBitwiseIdenticalToPlain) {
  const Csr g = sbm_graph();
  const ZCsr z = ZCsr::encode(g);
  core::Config cfg;
  cfg.threads = 2;
  core::Louvain runner(cfg);
  const auto plain = runner.run(g);
  const auto compressed = runner.run_z(z);
  expect_same_result(plain.community, plain.modularity, compressed.community,
                     compressed.modularity);
}

TEST(ZLouvain, CoreRunZOnWeightedGraphIsBitwiseIdentical) {
  const Csr g = random_graph(1200, 9000, 77, /*fractional_weights=*/true);
  const ZCsr z = ZCsr::encode(g);
  core::Config cfg;
  cfg.threads = 2;
  core::Louvain runner(cfg);
  const auto plain = runner.run(g);
  const auto compressed = runner.run_z(z);
  expect_same_result(plain.community, plain.modularity, compressed.community,
                     compressed.modularity);
}

TEST(ZLouvain, SeqLouvainZIsBitwiseIdenticalToPlain) {
  const Csr g = sbm_graph();
  const auto plain = seq::louvain(g);
  const auto compressed = seq::louvain_z(ZCsr::encode(g));
  expect_same_result(plain.community, plain.modularity, compressed.community,
                     compressed.modularity);
}

TEST(ZLouvain, MappedGraphRunMatchesPlain) {
  const auto dir = std::filesystem::temp_directory_path() / "glouvain_zg_run";
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "run.zg").string();
  const Csr g = sbm_graph();
  ASSERT_TRUE(save(ZCsr::encode(g), file).ok());
  auto mapped = MappedGraph::open(file);
  ASSERT_TRUE(mapped.ok());
  core::Config cfg;
  cfg.threads = 2;
  core::Louvain runner(cfg);
  const auto plain = runner.run(g);
  const auto z = runner.run_z(mapped->zcsr());
  expect_same_result(plain.community, plain.modularity, z.community,
                     z.modularity);
  std::filesystem::remove_all(dir);  // unlink is safe under a live mapping
}

// ------------------------------------------------------- detect wiring

TEST(ZDetect, BaseRunZFallbackDecodesAndDelegates) {
  // shard has no native z path: its inherited run_z must decode to a
  // plain Csr and produce the backend's ordinary result. (plm has none
  // either, but its asynchronous moves are not bitwise-repeatable on a
  // multi-core pool.)
  const Csr g = sbm_graph();
  const ZCsr z = ZCsr::encode(g);
  auto detector = detect::make("shard");
  ASSERT_TRUE(detector.ok());
  detect::Options options;
  options.threads = 2;
  const auto via_z = (*detector)->run_z(z, options);
  const auto via_plain = (*detector)->run(g, options);
  expect_same_result(via_plain.community, via_plain.modularity,
                     via_z.community, via_z.modularity);
}

}  // namespace
}  // namespace glouvain::zg
