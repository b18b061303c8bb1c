// Invariants of the dynamic-graph subsystem:
//   * apply_delta == fresh graph::build_csr of the mutated edge list,
//     BITWISE (weight-1 edges make every float sum order-independent);
//   * warm-start detection stays within tolerance of a cold recompute
//     after any delta sequence, for both warm backends;
//   * a warm start's frontier is the delta's touched endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "detect/detector.hpp"
#include "gen/churn.hpp"
#include "gen/sbm.hpp"
#include "graph/builder.hpp"
#include "stream/apply.hpp"
#include "stream/delta_io.hpp"
#include "stream/session.hpp"

namespace {

using namespace glouvain;
using graph::Community;
using graph::Csr;
using graph::Edge;
using graph::VertexId;

/// Reference model: the undirected edge map (u <= v), mutated with the
/// exact Delta semantics, rebuilt from scratch through build_csr.
class EdgeModel {
 public:
  explicit EdgeModel(const Csr& graph) {
    for (VertexId u = 0; u < graph.num_vertices(); ++u) {
      auto nbrs = graph.neighbors(u);
      auto ws = graph.weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (u <= nbrs[i]) edges_[{u, nbrs[i]}] = ws[i];
      }
    }
    num_vertices_ = graph.num_vertices();
  }

  void apply(const stream::Delta& delta) {
    for (const Edge& e : delta.deletions) {  // deletions first
      edges_.erase(key(e.u, e.v));
    }
    for (const Edge& e : delta.insertions) {
      if (e.w <= 0) continue;
      edges_[key(e.u, e.v)] += e.w;
      num_vertices_ = std::max({num_vertices_, e.u + 1, e.v + 1});
    }
  }

  Csr build() const {
    std::vector<Edge> list;
    list.reserve(edges_.size());
    for (const auto& [uv, w] : edges_) list.push_back({uv.first, uv.second, w});
    return graph::build_csr(num_vertices_, std::move(list));
  }

 private:
  static std::pair<VertexId, VertexId> key(VertexId u, VertexId v) {
    return {std::min(u, v), std::max(u, v)};
  }

  std::map<std::pair<VertexId, VertexId>, graph::Weight> edges_;
  VertexId num_vertices_ = 0;
};

void expect_bitwise_equal(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_TRUE(std::ranges::equal(a.offsets(), b.offsets()));
  EXPECT_TRUE(std::ranges::equal(a.adjacency(), b.adjacency()));
  // Bitwise, not approximate: integer-valued weights sum exactly in any
  // order, so the parallel merge must reproduce build_csr's doubles.
  EXPECT_TRUE(std::ranges::equal(a.edge_weights(), b.edge_weights()));
}

gen::SbmResult small_sbm(std::uint64_t seed = 7) {
  gen::SbmParams p;
  p.num_vertices = 4000;
  p.num_communities = 40;
  p.intra_degree = 10;
  p.inter_degree = 2;
  p.seed = seed;
  return gen::planted_partition(p);
}

TEST(StreamApply, MatchesFreshBuildOverChurn) {
  auto sbm = small_sbm();
  EdgeModel model(sbm.graph);

  gen::ChurnParams cp;
  cp.epochs = 6;
  cp.churn_fraction = 0.03;
  cp.seed = 11;
  const auto deltas = gen::churn(sbm.graph, sbm.ground_truth, cp);
  ASSERT_EQ(deltas.size(), cp.epochs);

  Csr current = sbm.graph;
  for (const stream::Delta& delta : deltas) {
    auto applied = stream::apply_delta(current, delta);
    EXPECT_EQ(applied.inserted, delta.insertions.size());
    EXPECT_EQ(applied.deleted, delta.deletions.size());
    model.apply(delta);
    expect_bitwise_equal(applied.graph, model.build());
    current = std::move(applied.graph);
  }
}

TEST(StreamApply, MergingChurnAndNewVertices) {
  auto sbm = small_sbm(3);
  EdgeModel model(sbm.graph);

  gen::ChurnParams cp;
  cp.epochs = 4;
  cp.churn_fraction = 0.02;
  cp.mode = gen::ChurnMode::CommunityMerging;
  cp.seed = 5;
  auto deltas = gen::churn(sbm.graph, sbm.ground_truth, cp);
  // Splice in growth plus edge cases: a new vertex, a self-loop, a
  // no-op deletion, a non-positive insertion.
  const VertexId n = sbm.graph.num_vertices();
  deltas[1].insertions.push_back({n + 2, 0, 1.0});
  deltas[1].insertions.push_back({5, 5, 1.0});
  deltas[1].insertions.push_back({1, 2, 0.0});          // ignored
  deltas[1].deletions.push_back({n + 500, n + 501, 1}); // out of range no-op

  Csr current = sbm.graph;
  for (const stream::Delta& delta : deltas) {
    auto applied = stream::apply_delta(current, delta);
    model.apply(delta);
    expect_bitwise_equal(applied.graph, model.build());
    current = std::move(applied.graph);
  }
  EXPECT_EQ(current.num_vertices(), n + 3);
}

TEST(StreamApply, DeleteThenReinsertReplacesWeight) {
  // Same edge deleted and re-inserted in one batch: deletion runs
  // first, so the edge ends with the fresh weight, not the sum.
  Csr g = graph::build_csr(4, {{0, 1, 3.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  stream::Delta d;
  d.deletions.push_back({0, 1, 0});
  d.insertions.push_back({0, 1, 7.0});
  auto applied = stream::apply_delta(g, d);
  const Csr expected =
      graph::build_csr(4, {{0, 1, 7.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  expect_bitwise_equal(applied.graph, expected);
  EXPECT_EQ(applied.deleted, 1u);
  EXPECT_EQ(applied.inserted, 1u);
}

TEST(StreamDeltaIo, Roundtrip) {
  std::vector<stream::Delta> deltas(2);
  deltas[0].stamp = 1;
  deltas[0].insertions = {{1, 2, 1.5}, {3, 4, 1.0}};
  deltas[0].deletions = {{0, 1, 1.0}};
  deltas[1].stamp = 9;
  deltas[1].insertions = {{7, 7, 2.0}};

  const std::string path = testing::TempDir() + "/deltas_roundtrip.txt";
  ASSERT_TRUE(stream::try_save_deltas(deltas, path).ok());
  auto loaded = stream::try_load_deltas(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].stamp, 1u);
  EXPECT_EQ((*loaded)[0].insertions, deltas[0].insertions);
  EXPECT_EQ((*loaded)[0].deletions, deltas[0].deletions);
  EXPECT_EQ((*loaded)[1].insertions, deltas[1].insertions);

  auto missing = stream::try_load_deltas(testing::TempDir() + "/nope.txt");
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST(StreamDeltaIo, RoundtripKeepsEveryBitOfAWeight) {
  // 0.1 + 1/7 needs 17 significant digits; at the stream's default
  // precision of six it would read back as 0.242857. Unit weights
  // still print as "1".
  std::vector<stream::Delta> deltas(1);
  deltas[0].stamp = 3;
  deltas[0].insertions = {{0, 1, 0.1 + 1.0 / 7}, {2, 3, 1.0}};
  const std::string path = testing::TempDir() + "/deltas_weight_bits.txt";
  ASSERT_TRUE(stream::try_save_deltas(deltas, path).ok());
  auto loaded = stream::try_load_deltas(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].insertions, deltas[0].insertions);
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "batch 3", "+ 0 1 0.24285714285714285", "+ 2 3 1"}));
}

TEST(StreamDeltaIo, VertexIdBeyondTheIdSpaceIsInvalid) {
  // 4294967295 is graph::kInvalidVertex: apply_delta would grow the
  // graph to id + 1, which wraps to 0.
  const std::string path = testing::TempDir() + "/deltas_overflow.txt";
  std::ofstream(path) << "batch 1\n+ 0 1\n+ 0 4294967295\n";
  auto loaded = stream::try_load_deltas(path);
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos)
      << loaded.status().to_string();
}

/// Warm sessions on `backend` track a cold recompute over five epochs
/// of `mode` churn.
void expect_warm_tracks_cold(const char* backend, gen::ChurnMode mode) {
  auto sbm = small_sbm(17);
  gen::ChurnParams cp;
  cp.epochs = 5;
  cp.churn_fraction = 0.02;
  cp.mode = mode;
  cp.seed = 23;
  const auto deltas = gen::churn(sbm.graph, sbm.ground_truth, cp);

  stream::SessionOptions so;
  so.backend = backend;
  auto session = stream::Session::open(sbm.graph, so);
  ASSERT_TRUE(session.ok()) << session.status().to_string();

  auto detector = detect::make(backend);
  ASSERT_TRUE(detector.ok());

  Csr current = sbm.graph;
  for (const stream::Delta& delta : deltas) {
    auto rep = session->apply(delta);
    ASSERT_TRUE(rep.ok()) << rep.status().to_string();
    current = stream::apply_delta(current, delta).graph;

    const detect::Result cold = (*detector)->run(current, {});
    // Warm-start must track the cold answer; Louvain is heuristic, so
    // tolerance, not equality. 0.02 absolute Q is far tighter than the
    // run-to-run spread of a bad partition.
    EXPECT_NEAR(rep->modularity, cold.modularity, 0.02);
    EXPECT_GE(rep->modularity, 0.5);  // SBM structure stays detectable
  }
  EXPECT_EQ(session->epoch(), deltas.size());
  expect_bitwise_equal(session->graph(), current);
}

class WarmVsColdTest : public testing::TestWithParam<const char*> {};

TEST_P(WarmVsColdTest, ModularityWithinToleranceOverChurn) {
  expect_warm_tracks_cold(GetParam(), gen::ChurnMode::CommunityPreserving);
}

// Each epoch stitches two planted communities together, so a warm run
// must merge what its seed keeps apart.
TEST_P(WarmVsColdTest, ModularityWithinToleranceOverMergingChurn) {
  expect_warm_tracks_cold(GetParam(), gen::ChurnMode::CommunityMerging);
}

INSTANTIATE_TEST_SUITE_P(Backends, WarmVsColdTest,
                         testing::Values("core", "seq"));

TEST(StreamSession, EmptyDeltaIsNoop) {
  auto sbm = small_sbm(29);
  auto session = stream::Session::open(sbm.graph, {});
  ASSERT_TRUE(session.ok());
  const double q0 = session->result().modularity;
  auto rep = session->apply(stream::Delta{});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->frontier_size, 0u);
  EXPECT_EQ(rep->modularity, q0);
  EXPECT_EQ(session->epoch(), 1u);
}

TEST(StreamSession, FrontierIsTheTouchedEndpoints) {
  auto sbm = small_sbm(43);
  auto session = stream::Session::open(sbm.graph, {});
  ASSERT_TRUE(session.ok());

  // Delete one edge, and attach a new vertex n to three members of
  // vertex 0's planted community.
  const VertexId n = sbm.graph.num_vertices();
  std::vector<VertexId> members;
  for (VertexId v = 1; v < n && members.size() < 3; ++v) {
    if (sbm.ground_truth[v] == sbm.ground_truth[0]) members.push_back(v);
  }
  ASSERT_EQ(members.size(), 3u);
  stream::Delta delta;
  delta.deletions.push_back({0, sbm.graph.neighbors(0)[0], 1.0});
  for (const VertexId v : members) delta.insertions.push_back({n, v, 1.0});

  auto rep = session->apply(delta);
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep->frontier_size,
            stream::apply_delta(sbm.graph, delta).touched.size());
  const std::vector<Community>& community = session->community();
  ASSERT_EQ(community.size(), n + 1);
  for (const VertexId v : members) EXPECT_EQ(community[n], community[v]);
}

TEST(StreamSession, InvalidVertexIdIsRejectedAndLeavesSessionUnchanged) {
  auto sbm = small_sbm(37);
  auto session = stream::Session::open(sbm.graph, {});
  ASSERT_TRUE(session.ok());
  const std::vector<Community> before = session->community();
  stream::Delta delta;
  delta.insertions = {{0, 1, 1.0}, {0, graph::kInvalidVertex, 1.0}};
  auto rep = session->apply(delta);
  EXPECT_EQ(rep.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(session->epoch(), 0u);
  EXPECT_EQ(session->graph().num_vertices(), sbm.graph.num_vertices());
  expect_bitwise_equal(session->graph(), sbm.graph);
  EXPECT_EQ(session->community(), before);
}

TEST(StreamSession, UnknownBackendRejected) {
  stream::SessionOptions so;
  so.backend = "no-such-backend";
  auto session = stream::Session::open(small_sbm().graph, so);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DetectWarmStart, RegistryRoutesAndValidates) {
  auto sbm = small_sbm(31);
  auto detector = detect::make("core");
  ASSERT_TRUE(detector.ok());
  const detect::Result cold = (*detector)->run(sbm.graph, {});

  // Re-optimize everything from the previous partition: quality holds.
  detect::Options options;
  auto warm = std::make_shared<detect::WarmStart>();
  warm->seed = cold.community;
  options.warm_start = warm;
  const detect::Result rewarmed = (*detector)->run(sbm.graph, options);
  EXPECT_NEAR(rewarmed.modularity, cold.modularity, 0.02);

  // A malformed seed or frontier must be rejected loudly, not silently
  // misused, by every backend with a warm path.
  const VertexId n = sbm.graph.num_vertices();
  auto wrong_size = std::make_shared<detect::WarmStart>();
  wrong_size->seed.assign(3, 0);
  auto label_out_of_range = std::make_shared<detect::WarmStart>();
  label_out_of_range->seed = cold.community;
  label_out_of_range->seed[n / 2] = n;
  auto frontier_out_of_range = std::make_shared<detect::WarmStart>();
  frontier_out_of_range->seed = cold.community;
  frontier_out_of_range->frontier = {0, n};

  auto seq = detect::make("seq");
  ASSERT_TRUE(seq.ok());
  for (auto* d : {&*detector, &*seq}) {
    SCOPED_TRACE((*d)->name());
    for (const auto& bad :
         {wrong_size, label_out_of_range, frontier_out_of_range}) {
      options.warm_start = bad;
      EXPECT_THROW((*d)->run(sbm.graph, options), std::invalid_argument);
    }
  }
}

TEST(GenChurn, DeltasAreConsistent) {
  auto sbm = small_sbm(41);
  gen::ChurnParams cp;
  cp.epochs = 3;
  cp.churn_fraction = 0.05;
  const auto deltas = gen::churn(sbm.graph, sbm.ground_truth, cp);
  ASSERT_EQ(deltas.size(), 3u);

  Csr current = sbm.graph;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i].stamp, i + 1);
    EXPECT_FALSE(deltas[i].empty());
    // Every deletion hits a live edge and every insertion is novel,
    // because the generator tracks the evolving edge set.
    auto applied = stream::apply_delta(current, deltas[i]);
    EXPECT_EQ(applied.deleted, deltas[i].deletions.size());
    EXPECT_EQ(applied.inserted, deltas[i].insertions.size());
    // Preserving mode only inserts within a planted community.
    for (const Edge& e : deltas[i].insertions) {
      EXPECT_EQ(sbm.ground_truth[e.u], sbm.ground_truth[e.v]);
    }
    current = std::move(applied.graph);
  }
}

}  // namespace
