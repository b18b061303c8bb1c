// Property-based invariants swept over a (generator x seed) grid with
// parameterized gtest: these are the laws every component must satisfy
// regardless of input shape.
#include <gtest/gtest.h>

#include <cmath>

#include "core/aggregate.hpp"
#include "core/community_weights.hpp"
#include "core/louvain.hpp"
#include "core/rows.hpp"
#include "gen/ba.hpp"
#include "gen/er.hpp"
#include "gen/rgg.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/ws.hpp"
#include "graph/ops.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "seq/louvain.hpp"
#include "simt/thread_pool.hpp"
#include "util/prng.hpp"

namespace glouvain {
namespace {

using graph::Community;
using graph::Csr;
using graph::VertexId;

struct Family {
  const char* name;
  Csr (*make)(std::uint64_t seed);
};

Csr make_er(std::uint64_t s) { return gen::erdos_renyi(600, 3000, s); }
Csr make_rmat(std::uint64_t s) {
  return gen::rmat({.scale = 10, .edge_factor = 8}, s);
}
Csr make_ba(std::uint64_t s) { return gen::barabasi_albert(800, 4, s); }
Csr make_ws(std::uint64_t s) { return gen::watts_strogatz(800, 3, 0.1, s); }
Csr make_rgg(std::uint64_t s) { return gen::random_geometric(800, 0, s); }
Csr make_road(std::uint64_t s) {
  gen::RoadParams p;
  p.grid_nx = 24;
  p.grid_ny = 24;
  p.seed = s;
  return gen::road_network(p);
}

const Family kFamilies[] = {
    {"er", make_er},     {"rmat", make_rmat}, {"ba", make_ba},
    {"ws", make_ws},     {"rgg", make_rgg},   {"road", make_road},
};

class GraphProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  Csr make() {
    const auto [family, seed] = GetParam();
    return kFamilies[family].make(seed);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Grid, GraphProperty,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    [](const auto& p) {
      return std::string(kFamilies[std::get<0>(p.param)].name) + "_s" +
             std::to_string(std::get<1>(p.param));
    });

TEST_P(GraphProperty, GeneratorOutputIsValidCsr) {
  const Csr g = make();
  EXPECT_TRUE(graph::validate(g).empty()) << graph::validate(g);
}

TEST_P(GraphProperty, ModularityIsBounded) {
  const Csr g = make();
  util::Xoshiro256 rng(99);
  std::vector<Community> part(g.num_vertices());
  for (auto& c : part) {
    c = static_cast<Community>(rng.next_below(std::max<VertexId>(1, g.num_vertices() / 10)));
  }
  const double q = metrics::modularity(g, part);
  EXPECT_GE(q, -1.0);
  EXPECT_LE(q, 1.0);
}

TEST_P(GraphProperty, CoreAggregationMatchesReferenceOnLouvainPartition) {
  // Aggregate with the partition an actual optimization produced (more
  // adversarial than random: skewed sizes, singletons, hubs).
  const Csr g = make();
  const auto result = seq::louvain(g);
  // Convert to representative labels valid for contraction.
  std::vector<Community> labels = result.community;
  metrics::renumber(labels);
  simt::Device device;
  const auto agg = core::aggregate(device, g, labels);
  const Csr expect = core::contract_reference(core::PlainRows(g), labels,
                                              simt::ThreadPool::global());
  EXPECT_EQ(agg.contracted, expect);
}

TEST_P(GraphProperty, CoreLouvainModularityConsistent) {
  const Csr g = make();
  const auto result = core::louvain(g);
  EXPECT_NEAR(metrics::modularity(g, result.community), result.modularity, 1e-7);
  EXPECT_GE(result.modularity, -1.0);
  EXPECT_LE(result.modularity, 1.0);
}

TEST_P(GraphProperty, CoreNeverWorseThanSingletons) {
  const Csr g = make();
  std::vector<Community> singletons(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) singletons[v] = v;
  const double q0 = metrics::modularity(g, singletons);
  EXPECT_GE(core::louvain(g).modularity, q0 - 1e-9);
}

TEST_P(GraphProperty, LevelsShrinkStrictly) {
  const Csr g = make();
  const auto result = core::louvain(g);
  for (std::size_t i = 0; i + 1 < result.levels.size(); ++i) {
    EXPECT_LT(result.levels[i + 1].vertices, result.levels[i].vertices);
  }
}

TEST_P(GraphProperty, CommunityLabelsDense) {
  const Csr g = make();
  const auto result = core::louvain(g);
  auto labels = result.community;
  const Community k = metrics::renumber(labels);
  EXPECT_EQ(labels, result.community);
  const auto sizes = metrics::community_sizes(result.community);
  EXPECT_EQ(sizes.size(), k);
  for (auto s : sizes) EXPECT_GT(s, 0u);
}

TEST_P(GraphProperty, TotalWeightInvariantThroughHierarchy) {
  const Csr g = make();
  std::vector<Community> labels = seq::louvain(g).community;
  metrics::renumber(labels);
  const Csr c = core::contract_reference(core::PlainRows(g), labels,
                                         simt::ThreadPool::global());
  EXPECT_NEAR(c.total_weight(), g.total_weight(),
              1e-9 * std::max(1.0, g.total_weight()));
}

}  // namespace
}  // namespace glouvain
