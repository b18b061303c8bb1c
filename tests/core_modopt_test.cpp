// Tests for the modularity-optimization phase (Algorithms 1-2) of the
// GPU-style core.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/community_weights.hpp"
#include "core/louvain.hpp"
#include "core/modopt.hpp"
#include "core/move_kernels.hpp"
#include "core/workspace.hpp"
#include "gen/cliques.hpp"
#include "gen/er.hpp"
#include "gen/lfr.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "paper/compute_move.hpp"
#include "paper/hash_map.hpp"
#include "paper/lane_group.hpp"
#include "paper/primes.hpp"
#include "simt/backend.hpp"
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
  // The ablation widths (one lane; one warp at every degree) on both
  // devices, through the one lane-group dispatch. On the ring of
  // 5-cliques nearly every row takes the register path. The LFR graph's
  // power-law degrees (up to 128) put its hub rows on the hash-table
  // path at width 1 and 32, and its planted communities give a
  // modularity the schemes can be held to.
  const auto ring = gen::ring_of_cliques(6, 5);
  gen::LfrParams lfr;
  lfr.num_vertices = 4096;
  lfr.seed = 3;
  const auto skewed = gen::lfr(lfr).graph;
  for (const simt::Backend device :
       {simt::Backend::kScalar, simt::Backend::kVector}) {
    SCOPED_TRACE(simt::backend_name(device));
    const auto config = [&](const BucketScheme& scheme) {
      Config cfg;
      cfg.device = device;
      cfg.modopt_buckets = scheme;
      return cfg;
    };
    const double paper_q =
        Louvain(config(BucketScheme::paper_modopt())).run(skewed).modularity;
    for (const BucketScheme& scheme :
         {BucketScheme::single_lane(), BucketScheme::warp_per_vertex()}) {
      SCOPED_TRACE(scheme.lanes[0]);
      Louvain runner(config(scheme));
      std::vector<Community> community;
      runner.run_phase(ring, community, 1e-9);
      auto labels = community;
      EXPECT_EQ(metrics::renumber(labels), 6u);

      const Result r = runner.run(skewed);
      ASSERT_EQ(r.community.size(), skewed.num_vertices());
      labels = r.community;
      const Community k = metrics::renumber(labels);
      EXPECT_EQ(*std::max_element(r.community.begin(), r.community.end()) + 1,
                k);  // dense labels: [0, k) all used
      EXPECT_NEAR(r.modularity, paper_q, 0.02 * paper_q);
    }
  }
}

TEST(OptimizePhase, HighDegreeHubUsesGlobalBucket) {
  // A star with 500 leaves: the hub sits in the >319 bucket, which
  // launches one task per dispatch; everything must still converge to
  // one community.
  std::vector<graph::Edge> edges;
  for (VertexId leaf = 1; leaf <= 500; ++leaf) edges.push_back({0, leaf, 1.0});
  const auto star = graph::build_csr(501, std::move(edges));
  Louvain runner;
  std::vector<Community> community;
  runner.run_phase(star, community, 1e-9);
  auto labels = community;
  EXPECT_EQ(metrics::renumber(labels), 1u);
}

TEST(OptimizePhase, FirstSweepTimeRecorded) {
  const auto g = gen::erdos_renyi(2000, 12000, 9);
  Louvain runner;
  std::vector<Community> community;
  const PhaseResult pr = runner.run_phase(g, community, 1e-6);
  EXPECT_GT(pr.first_sweep_seconds, 0.0);
}

// --- The register path (degree <= 4) against the table path. Both
// decide one vertex v = 0 of a 64-vertex state through a one-row
// source, so the row's order, its self-loop and every community label
// are set by the case.

struct OneRow {
  std::vector<VertexId> adj;
  std::vector<Weight> w;
  RowView row(VertexId, unsigned) const {
    return {adj.data(), w.data(), static_cast<std::uint32_t>(adj.size())};
  }
};

struct MoveCase {
  OneRow row;
  PhaseState state;
  Weight m2 = 64;
};

constexpr VertexId kCaseVertices = 64;

MoveCase empty_case(VertexId vertices = kCaseVertices) {
  MoveCase mc;
  PhaseState& s = mc.state;
  s.strengths.assign(vertices, 1.0);
  s.loops.assign(vertices, 0.0);
  s.community.resize(vertices);
  for (VertexId u = 0; u < vertices; ++u) s.community[u] = u;
  s.new_comm = s.community;
  s.tot.assign(vertices, 1.0);
  s.com_size.assign(vertices, 1);
  s.move_gain.assign(vertices, 0.0);
  return mc;
}

/// new_comm[v] and the bits of move_gain[v].
using Decision = std::pair<Community, std::uint64_t>;

template <typename Group>
Decision table_decision(MoveCase mc, const Group& group) {
  const util::HashTableParams params =
      util::hash_params_for_degree(mc.row.adj.size());
  std::vector<Community> keys(params.capacity);
  std::vector<Weight> weights(params.capacity);
  std::vector<std::uint32_t> touched(params.capacity);
  LocalCommunityHashMap table(keys, weights, params);
  table.clear();
  detail::compute_move(mc.row, 0, mc.state, mc.m2, 0, group, table, touched);
  return {mc.state.new_comm[0],
          std::bit_cast<std::uint64_t>(mc.state.move_gain[0])};
}

Decision small_decision(MoveCase mc) {
  detail::compute_move_small(mc.row, 0, mc.state, mc.m2, 0);
  return {mc.state.new_comm[0],
          std::bit_cast<std::uint64_t>(mc.state.move_gain[0])};
}

/// The register decision == the table path's at group widths from 1 to
/// 128, lanes 1 and 2 of the ablation schemes included.
void expect_same_decision(const MoveCase& mc, const std::string& what) {
  SCOPED_TRACE(what);
  const Decision small = small_decision(mc);
  EXPECT_EQ(small, table_decision(mc, simt::FixedLaneGroup<1>{}));
  EXPECT_EQ(small, table_decision(mc, simt::FixedLaneGroup<2>{}));
  EXPECT_EQ(small, table_decision(mc, simt::FixedLaneGroup<4>{}));
  EXPECT_EQ(small, table_decision(mc, simt::FixedLaneGroup<8>{}));
  EXPECT_EQ(small, table_decision(mc, simt::FixedLaneGroup<32>{}));
  EXPECT_EQ(small, table_decision(mc, simt::FixedLaneGroup<128>{}));
}

/// Candidate pairs of v = 0 whose gains differ by less than 1e-15
/// without being equal: the pairs an epsilon tie rule would call a tie.
int near_tie_pairs(const MoveCase& mc) {
  const PhaseState& s = mc.state;
  std::vector<std::pair<Community, Weight>> cand;  // first-seen order
  for (std::size_t i = 0; i < mc.row.adj.size(); ++i) {
    const VertexId u = mc.row.adj[i];
    if (u == 0) continue;
    const Community c = s.community[u];
    const auto it = std::find_if(cand.begin(), cand.end(),
                                 [&](const auto& e) { return e.first == c; });
    if (it == cand.end()) {
      cand.emplace_back(c, mc.row.w[i]);
    } else {
      it->second += mc.row.w[i];
    }
  }
  std::vector<double> gains;
  for (const auto& [c, w] : cand) {
    if (c != s.community[0]) {
      gains.push_back(w - s.strengths[0] * s.tot[c] * (1.0 / mc.m2));
    }
  }
  int pairs = 0;
  for (std::size_t i = 0; i < gains.size(); ++i) {
    for (std::size_t j = i + 1; j < gains.size(); ++j) {
      const double d = std::abs(gains[i] - gains[j]);
      pairs += d > 0 && d < 1e-15;
    }
  }
  return pairs;
}

TEST(SmallMove, SeededNeighbourhoodsMatchTablePath) {
  // Few distinct labels per row (probes collide), each row's order
  // shuffled, a self-loop in some rows, the current community present
  // in some and absent in others, and a mix of singleton and larger
  // communities for the guard. Half the cases draw weights within a
  // few ulps of each other over equal tot, so gains tie exactly or sit
  // within 1e-15 of each other.
  util::Xoshiro256 rng(20);
  int near_ties = 0, self_loops = 0, current_present = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    MoveCase mc = empty_case();
    PhaseState& s = mc.state;
    const bool near_tie = trial % 2 == 1;
    const auto deg = static_cast<std::uint32_t>(rng.next_in(1, 4));
    std::vector<Community> labels(rng.next_in(1, 4));
    for (auto& c : labels) {
      c = static_cast<Community>(rng.next_below(kCaseVertices));
    }
    VertexId next = 1 + static_cast<VertexId>(rng.next_below(8));
    for (std::uint32_t i = 0; i < deg; ++i) {
      const bool loop = i == 0 && deg > 1 && rng.next_bool(0.25);
      const VertexId u = loop ? 0 : next;
      next += 1 + static_cast<VertexId>(rng.next_below(8));
      if (!loop) s.community[u] = labels[rng.next_below(labels.size())];
      mc.row.adj.push_back(u);
      const auto j = static_cast<double>(rng.next_below(10));
      mc.row.w.push_back(near_tie ? 1.0 + j * 0x1p-52 : 0.5 + 0.5 * j);
      self_loops += loop;
    }
    for (std::uint32_t i = deg - 1; i > 0; --i) {
      const auto j = static_cast<std::uint32_t>(rng.next_below(i + 1));
      std::swap(mc.row.adj[i], mc.row.adj[j]);
      std::swap(mc.row.w[i], mc.row.w[j]);
    }
    const auto other = static_cast<Community>(rng.next_below(kCaseVertices));
    s.community[0] = rng.next_bool(0.5) ? labels[0] : other;
    for (VertexId c = 0; c < kCaseVertices; ++c) {
      s.tot[c] = near_tie ? 2.0 : 0.5 + rng.next_double() * 3.0;
      s.com_size[c] = static_cast<VertexId>(rng.next_in(1, 2));
    }
    s.strengths[0] = near_tie ? 2.0 : 0.5 + rng.next_double() * 3.0;
    s.tot[s.community[0]] = s.strengths[0] + (rng.next_bool(0.5) ? 0.0 : 1.0);
    mc.m2 = 16.0 + static_cast<double>(rng.next_below(64));
    for (const VertexId u : mc.row.adj) {
      current_present += u != 0 && s.community[u] == s.community[0];
    }

    expect_same_decision(mc, "trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) break;
    near_ties += near_tie_pairs(mc);
  }
  // The seeds reach each situation the contract is about.
  EXPECT_GT(self_loops, 100);
  EXPECT_GT(current_present, 100);
  EXPECT_GT(near_ties, 100) << "too few candidate gains within 1e-15";
}

TEST(SmallMove, ExactTieGoesToTheLowerId) {
  // Communities 5 and 12 with equal weight and tot tie exactly.
  MoveCase mc = empty_case();
  mc.row.adj = {9, 10, 11, 12};
  mc.row.w = {1.0, 1.0, 1.0, 1.0};
  mc.state.community[9] = 5;
  mc.state.community[10] = 12;
  mc.state.community[11] = 30;
  mc.state.community[12] = 30;
  mc.state.community[0] = 40;
  mc.state.tot[5] = mc.state.tot[12] = 3.0;
  mc.state.tot[30] = 100.0;
  mc.state.tot[40] = 1.0;
  expect_same_decision(mc, "exact tie");
  EXPECT_EQ(small_decision(mc).first, 5u);
}

TEST(SmallMove, SelfLoopAndCurrentCommunity) {
  // A self-loop, one arc into the vertex's own community and two into
  // another: the self-loop is skipped and the own-community weight is
  // the stay term.
  MoveCase mc = empty_case();
  mc.row.adj = {0, 3, 7, 8};
  mc.row.w = {2.0, 1.0, 1.5, 1.5};
  mc.state.community[0] = 3;
  mc.state.community[3] = 3;
  mc.state.community[7] = 7;
  mc.state.community[8] = 7;
  mc.state.strengths[0] = 6.0;
  mc.state.tot[3] = 8.0;
  mc.state.tot[7] = 4.0;
  mc.state.com_size[3] = 2;
  expect_same_decision(mc, "self-loop, current present");
  EXPECT_EQ(small_decision(mc).first, 7u);
  mc.state.community[3] = 20;  // current community absent
  expect_same_decision(mc, "self-loop, current absent");
  mc.row.adj = {0};  // a pure self-loop vertex has no candidate
  mc.row.w = {2.0};
  expect_same_decision(mc, "pure self-loop");
  EXPECT_EQ(small_decision(mc),
            (Decision{3u, std::bit_cast<std::uint64_t>(0.0)}));
}

TEST(SmallMove, SingletonGuardVetoes) {
  // Singleton 2 prefers singleton 9 (larger id): the guard keeps it
  // home on both paths; with 9 relabelled to 1 the move goes through.
  MoveCase mc = empty_case();
  mc.row.adj = {9, 14};
  mc.row.w = {3.0, 1.0};
  mc.state.community[0] = 2;
  mc.state.community[9] = 9;
  mc.state.community[14] = 14;
  expect_same_decision(mc, "veto");
  EXPECT_EQ(small_decision(mc).first, 2u);
  mc.state.community[9] = 1;
  expect_same_decision(mc, "no veto");
  EXPECT_EQ(small_decision(mc).first, 1u);
}

// --- The dense path (every vertex above degree 4 in a large phase)
// against the table path, on the same one-row harness over a state
// large enough for rows of 400 distinct neighbours.

constexpr VertexId kDenseCaseVertices = 1024;

/// The dense decision through `acc`, one accumulator reused across
/// cases the way a worker reuses its own: it must come back empty.
Decision dense_decision(MoveCase mc, CommunityWeights& acc) {
  acc.grow(mc.state.community.size(), mc.row.adj.size());
  detail::compute_move_dense(mc.row, 0, mc.state, mc.m2, 0, acc);
  EXPECT_TRUE(acc.touched().empty());
  for (Community c = 0; c < mc.state.community.size(); ++c) {
    if (acc[c] != 0) {
      ADD_FAILURE() << "sum of community " << c << " left at " << acc[c];
      break;
    }
  }
  return {mc.state.new_comm[0],
          std::bit_cast<std::uint64_t>(mc.state.move_gain[0])};
}

/// The dense decision == the table path's at group widths from 1 to
/// 128, lanes 1 and 2 of the ablation schemes included.
void expect_dense_matches_table(const MoveCase& mc, CommunityWeights& acc,
                                const std::string& what) {
  SCOPED_TRACE(what);
  const Decision dense = dense_decision(mc, acc);
  EXPECT_EQ(dense, table_decision(mc, simt::FixedLaneGroup<1>{}));
  EXPECT_EQ(dense, table_decision(mc, simt::FixedLaneGroup<2>{}));
  EXPECT_EQ(dense, table_decision(mc, simt::FixedLaneGroup<4>{}));
  EXPECT_EQ(dense, table_decision(mc, simt::FixedLaneGroup<8>{}));
  EXPECT_EQ(dense, table_decision(mc, simt::FixedLaneGroup<32>{}));
  EXPECT_EQ(dense, table_decision(mc, simt::FixedLaneGroup<128>{}));
}

TEST(DenseMove, SeededNeighbourhoodsMatchTablePath) {
  // Degrees 5 to 400, each bucket bound (8, 16, 32, 84, 319) and the
  // degree above it included; few distinct labels per row (probes
  // collide), each row's order shuffled, a self-loop in some rows, the
  // current community present in some and absent in others, and
  // singleton and larger communities for the guard. Half the cases
  // draw weights within a few ulps of each other over equal tot, so
  // gains tie exactly or sit within 1e-15 of each other; the others
  // draw non-integer weights.
  const std::vector<std::uint32_t> bounds = {5,  8,  9,  16,  17,  32, 33,
                                             84, 85, 319, 320, 400};
  util::Xoshiro256 rng(21);
  CommunityWeights acc;
  int near_ties = 0, self_loops = 0, current_present = 0;
  std::vector<int> degrees_seen(401, 0);
  for (int trial = 0; trial < 3000; ++trial) {
    MoveCase mc = empty_case(kDenseCaseVertices);
    PhaseState& s = mc.state;
    const bool near_tie = trial % 2 == 1;
    const auto deg = trial < 2 * static_cast<int>(bounds.size())
                         ? bounds[static_cast<std::size_t>(trial / 2)]
                         : static_cast<std::uint32_t>(rng.next_in(5, 400));
    ++degrees_seen[deg];
    std::vector<Community> labels(rng.next_in(1, trial % 3 == 0 ? 40 : 6));
    for (auto& c : labels) {
      c = static_cast<Community>(rng.next_below(kDenseCaseVertices));
    }
    VertexId next = 1 + static_cast<VertexId>(rng.next_below(2));
    for (std::uint32_t i = 0; i < deg; ++i) {
      const bool loop = i == 0 && rng.next_bool(0.25);
      const VertexId u = loop ? 0 : next;
      next += 1 + static_cast<VertexId>(rng.next_below(2));
      if (!loop) s.community[u] = labels[rng.next_below(labels.size())];
      mc.row.adj.push_back(u);
      const auto j = static_cast<double>(rng.next_below(10));
      mc.row.w.push_back(near_tie ? 1.0 + j * 0x1p-52
                                  : 0.1 + 0.3 * j + 0.01 * rng.next_double());
      self_loops += loop;
    }
    for (std::uint32_t i = deg - 1; i > 0; --i) {
      const auto j = static_cast<std::uint32_t>(rng.next_below(i + 1));
      std::swap(mc.row.adj[i], mc.row.adj[j]);
      std::swap(mc.row.w[i], mc.row.w[j]);
    }
    const auto other =
        static_cast<Community>(rng.next_below(kDenseCaseVertices));
    s.community[0] = rng.next_bool(0.5) ? labels[0] : other;
    for (VertexId c = 0; c < kDenseCaseVertices; ++c) {
      s.tot[c] = near_tie ? 2.0 : 0.5 + rng.next_double() * 30.0;
      s.com_size[c] = static_cast<VertexId>(rng.next_in(1, 2));
    }
    s.strengths[0] = near_tie ? 2.0 : 0.5 + rng.next_double() * 3.0;
    s.tot[s.community[0]] = s.strengths[0] + (rng.next_bool(0.5) ? 0.0 : 1.0);
    mc.m2 = 64.0 + static_cast<double>(rng.next_below(4096));
    for (const VertexId u : mc.row.adj) {
      current_present += u != 0 && s.community[u] == s.community[0];
    }

    expect_dense_matches_table(mc, acc, "trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) break;
    near_ties += near_tie_pairs(mc);
  }
  // The seeds reach each situation the contract is about.
  for (const std::uint32_t d : bounds) EXPECT_GT(degrees_seen[d], 0) << d;
  EXPECT_GT(self_loops, 100);
  EXPECT_GT(current_present, 100);
  EXPECT_GT(near_ties, 100) << "too few candidate gains within 1e-15";
}

TEST(DenseMove, SelfLoopCurrentCommunityAndGuard) {
  // Six arcs: a self-loop, two into the vertex's own community 2, two
  // into community 9 and one into 30. Community 9 wins; while vertex 0
  // is a singleton and 9 one too, the guard vetoes the larger id.
  CommunityWeights acc;
  MoveCase mc = empty_case(kDenseCaseVertices);
  mc.row.adj = {0, 3, 9, 4, 30, 5};
  mc.row.w = {2.0, 0.25, 3.0, 0.25, 1.0, 0.5};
  PhaseState& s = mc.state;
  s.community[0] = 2;
  s.community[3] = s.community[4] = 2;
  s.community[5] = 9;
  s.com_size[2] = 3;
  s.tot[2] = 3.0;
  expect_dense_matches_table(mc, acc, "own community present");
  EXPECT_EQ(dense_decision(mc, acc).first, 9u);
  s.community[3] = s.community[4] = 40;  // own community absent
  s.com_size[2] = 1;
  s.tot[2] = 1.0;
  expect_dense_matches_table(mc, acc, "singleton, guard vetoes");
  EXPECT_EQ(dense_decision(mc, acc).first, 2u);
  s.community[9] = s.community[5] = 1;  // a smaller singleton id
  expect_dense_matches_table(mc, acc, "singleton, guard allows");
  EXPECT_EQ(dense_decision(mc, acc).first, 1u);
}

// --- Whole phases: every vertex above degree 4 takes the dense path.

/// label_hash of the two phases below at the commit before the dense
/// path, when every vertex above degree 4 took the table path.
constexpr std::uint64_t kMeshPhasePin = 6361694082841955505u;
constexpr std::uint64_t kWarmPhasePin = 16054201713792818023u;

/// A fingerprint of the labels.
std::uint64_t label_hash(std::span<const Community> labels) {
  std::uint64_t h = labels.size();
  for (const Community c : labels) h = util::hash64(h ^ c);
  return h;
}

/// The 8x8x8 26-neighbour mesh, 512 vertices of degree 7 to 26, with
/// its rows rebuilt from the edge list in the order the pins saw.
graph::Csr mesh() {
  const graph::Csr grid = gen::grid3d(8, 8, 8);
  std::vector<graph::Edge> edges;
  for (VertexId u = 0; u < grid.num_vertices(); ++u) {
    const auto adj = grid.neighbors(u);
    const auto w = grid.weights(u);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (u < adj[i]) edges.push_back({u, adj[i], w[i]});
    }
  }
  return graph::build_csr(grid.num_vertices(), std::move(edges));
}

/// The bytes of the accumulators `ws` holds for `workers` workers.
std::size_t accumulator_bytes(Workspace& ws, unsigned workers) {
  std::size_t total = 0;
  for (const CommunityWeights& a : ws.accumulators(workers, 0, 0)) {
    total += a.held_bytes();
  }
  return total;
}

TEST(DensePhase, FullMeshPhaseDecidesAsTheTablePathDid) {
  // Each of the four workers takes an accumulator with a slot per
  // vertex and the labels are the ones the tables gave.
  simt::Device device({.worker_threads = 4});
  const graph::Csr g = mesh();
  Workspace ws;
  PhaseState state;
  state.reset(g, device);
  optimize_phase(device, g, Config{}, state, {}, 1e-6, ws, nullptr);
  EXPECT_GE(accumulator_bytes(ws, 4), 4 * 512 * sizeof(Weight));
  EXPECT_EQ(label_hash(state.community), kMeshPhasePin);
}

TEST(DensePhase, WarmOneVertexFrontierDecidesAsTheTablePathDid) {
  // A warm phase over one vertex of degree 26 sums 26 arcs in an
  // accumulator of 512 slots.
  simt::Device device({.worker_threads = 4});
  const graph::Csr g = mesh();
  Workspace ws;
  PhaseState state;
  std::vector<Community> seed(512);
  for (VertexId v = 0; v < 512; ++v) seed[v] = v % 64 / 8 * 8 + v / 256;
  state.reset_from(g, device, seed);
  const VertexId centre = 4 * 64 + 4 * 8 + 4;
  ASSERT_EQ(g.degree(centre), 26u);
  const std::vector<VertexId> frontier = {centre};
  optimize_phase(device, g, Config{}, state, frontier, 1e-6, ws, nullptr);
  EXPECT_GE(accumulator_bytes(ws, 4), 4 * 512 * sizeof(Weight));
  EXPECT_EQ(label_hash(state.community), kWarmPhasePin);
}

TEST(DensePhase, RegisterPathPhaseTakesNoAccumulator) {
  // A 4-neighbour lattice has no vertex above degree 4, so its phase
  // runs in registers alone and builds no accumulator.
  simt::Device device({.worker_threads = 4});
  const graph::Csr g = gen::grid2d(32, 32, /*moore=*/false);
  Workspace ws;
  PhaseState state;
  state.reset(g, device);
  const PhaseResult r =
      optimize_phase(device, g, Config{}, state, {}, 1e-6, ws, nullptr);
  EXPECT_GT(r.modularity, 0.0);  // vertices merged: singletons score < 0
  EXPECT_EQ(accumulator_bytes(ws, 4), 0u);
}

}  // namespace
}  // namespace glouvain::core
