// Tests for the modularity-optimization phase (Algorithms 1-2) of the
// GPU-style core.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/louvain.hpp"
#include "core/modopt.hpp"
#include "gen/cliques.hpp"
#include "gen/er.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "util/prng.hpp"

namespace glouvain::core {
namespace {

using graph::Community;
using graph::VertexId;
using graph::Weight;

TEST(PhaseState, ResetInitializesSingletons) {
  const auto g = gen::ring_of_cliques(4, 4);
  simt::Device device;
  PhaseState state;
  state.reset(g, device);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(state.community[v], v);
    EXPECT_EQ(state.com_size[v], 1u);
    EXPECT_DOUBLE_EQ(state.tot[v], g.strength(v));
    EXPECT_DOUBLE_EQ(state.strengths[v], g.strength(v));
  }
}

TEST(DeviceModularity, MatchesReference) {
  const auto g = gen::erdos_renyi(500, 3000, 3);
  simt::Device device;
  PhaseState state;
  state.reset(g, device);
  // All singletons.
  Workspace ws;
  EXPECT_NEAR(device_modularity(device, g, state.community, state.tot, ws),
              metrics::modularity(g, state.community), 1e-9);
}

TEST(DeviceModularity, BitwiseRepeatableAndWorkerCountIndependent) {
  // Non-integer weights on 200k vertices: a schedule-ordered sum would
  // give several bit patterns over repeated calls.
  const VertexId n = 200000;
  util::Xoshiro256 rng(9);
  std::vector<graph::Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    for (int k = 0; k < 3; ++k) {
      edges.push_back({v, static_cast<VertexId>(rng.next_below(n)),
                       0.1 + static_cast<double>(rng.next_below(1000)) / 7.0});
    }
  }
  const graph::Csr g = graph::build_csr(n, std::move(edges));
  std::vector<Community> community(n);
  std::vector<Weight> tot(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    community[v] = (v / 16) * 16;
    tot[community[v]] += g.strength(v);
  }
  simt::Device four({.worker_threads = 4});
  simt::Device one({.worker_threads = 1});
  Workspace ws;
  const double reference = device_modularity(one, g, community, tot, ws);
  EXPECT_NEAR(reference, metrics::modularity(g, community), 1e-9);
  for (int rep = 0; rep < 30; ++rep) {
    const double q = device_modularity(four, g, community, tot, ws);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(q),
              std::bit_cast<std::uint64_t>(reference))
        << "call " << rep;
  }
}

TEST(OptimizePhase, OneCliqueCollapses) {
  const auto g = gen::ring_of_cliques(1, 6);
  Louvain runner;
  std::vector<Community> community;
  runner.run_phase(g, community, 1e-9);
  auto labels = community;
  EXPECT_EQ(metrics::renumber(labels), 1u);
}

TEST(OptimizePhase, RingOfCliquesToCliques) {
  const auto g = gen::ring_of_cliques(10, 5);
  Louvain runner;
  std::vector<Community> community;
  const PhaseResult pr = runner.run_phase(g, community, 1e-9);
  auto labels = community;
  EXPECT_EQ(metrics::renumber(labels), 10u);
  EXPECT_GT(pr.sweeps, 0);
  EXPECT_NEAR(pr.modularity, metrics::modularity(g, community), 1e-9);
}

TEST(OptimizePhase, PhaseNeverDecreasesModularity) {
  const auto g = gen::rmat({.scale = 11, .edge_factor = 8}, 5);
  Louvain runner;
  std::vector<Community> community;
  const PhaseResult pr = runner.run_phase(g, community, 1e-6);
  // Singleton start has Q <= 0 on an unweighted simple graph.
  std::vector<Community> singletons(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) singletons[v] = v;
  EXPECT_GE(pr.modularity, metrics::modularity(g, singletons) - 1e-9);
}

TEST(OptimizePhase, RespectsSweepCap) {
  const auto g = gen::erdos_renyi(1000, 8000, 7);
  Config cfg;
  cfg.max_sweeps_per_level = 2;
  Louvain runner(cfg);
  std::vector<Community> community;
  const PhaseResult pr = runner.run_phase(g, community, 0.0);
  EXPECT_LE(pr.sweeps, 2);
}

TEST(OptimizePhase, SingletonGuardBlocksLargerIds) {
  // Two isolated vertices joined by an edge: in sweep 1 both are
  // singletons; only the larger id may move (to the smaller).
  const auto g = graph::build_csr(2, {{0, 1, 1.0}});
  Louvain runner;
  std::vector<Community> community;
  runner.run_phase(g, community, 1e-9);
  EXPECT_EQ(community[0], 0u);
  EXPECT_EQ(community[1], 0u);
}

TEST(OptimizePhase, WeightedEdgesDriveDecisions) {
  // Triangle 0-1-2 with a heavy 0-1 edge plus pendant 2-3: vertex 2
  // prefers the heavy pair only if weights are honored.
  const auto g = graph::build_csr(
      4, {{0, 1, 10.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}});
  Louvain runner;
  std::vector<Community> community;
  runner.run_phase(g, community, 1e-9);
  EXPECT_EQ(community[0], community[1]);
}

TEST(OptimizePhase, IsolatedVerticesStaySingleton) {
  const auto g = graph::build_csr(5, {{0, 1, 1.0}});
  Louvain runner;
  std::vector<Community> community;
  runner.run_phase(g, community, 1e-9);
  EXPECT_EQ(community[2], 2u);
  EXPECT_EQ(community[3], 3u);
  EXPECT_EQ(community[4], 4u);
}

TEST(OptimizePhase, RelaxedStrategyStillConverges) {
  const auto g = gen::ring_of_cliques(8, 6);
  Config cfg;
  cfg.update = UpdateStrategy::Relaxed;
  Louvain runner(cfg);
  std::vector<Community> community;
  const PhaseResult pr = runner.run_phase(g, community, 1e-9);
  auto labels = community;
  EXPECT_EQ(metrics::renumber(labels), 8u);
  EXPECT_GT(pr.modularity, 0.7);
}

TEST(OptimizePhase, AblationSchemesAgreeOnCliques) {
  const auto g = gen::ring_of_cliques(6, 5);
  for (auto scheme : {BucketScheme::single_lane(), BucketScheme::warp_per_vertex()}) {
    Config cfg;
    cfg.modopt_buckets = scheme;
    Louvain runner(cfg);
    std::vector<Community> community;
    runner.run_phase(g, community, 1e-9);
    auto labels = community;
    EXPECT_EQ(metrics::renumber(labels), 6u);
  }
}

TEST(OptimizePhase, HighDegreeHubUsesGlobalBucket) {
  // A star with 500 leaves: the hub sits in the >319 bucket whose hash
  // table lives in "global memory"; everything must still converge to
  // one community.
  std::vector<graph::Edge> edges;
  for (VertexId leaf = 1; leaf <= 500; ++leaf) edges.push_back({0, leaf, 1.0});
  const auto star = graph::build_csr(501, std::move(edges));
  Louvain runner;
  std::vector<Community> community;
  runner.run_phase(star, community, 1e-9);
  auto labels = community;
  EXPECT_EQ(metrics::renumber(labels), 1u);
  // Shared arena must not have been used for the hub's table.
  EXPECT_EQ(runner.device().total_spills(), 0u);
}

TEST(OptimizePhase, FirstSweepTimeRecorded) {
  const auto g = gen::erdos_renyi(2000, 12000, 9);
  Louvain runner;
  std::vector<Community> community;
  const PhaseResult pr = runner.run_phase(g, community, 1e-6);
  EXPECT_GT(pr.first_sweep_seconds, 0.0);
}

}  // namespace
}  // namespace glouvain::core
