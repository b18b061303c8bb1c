// End-to-end tests of the GPU-style Louvain driver, and of the one
// level loop (climb_levels) every backend climbs.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/levels.hpp"
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
#include "obs/recorder.hpp"
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

// --- climb_levels with scripted steps: the loop's rules in one place.

/// One scripted level: what its phase reports and what its contraction
/// leaves for the next level.
struct ScriptedLevel {
  PhaseResult phase;
  LevelSize next;
};

/// Drives climb_levels over `script` (one entry per level the loop may
/// reach) and records the thresholds the optimize step was handed.
struct ScriptedClimb {
  detect::Result result;
  std::vector<double> thresholds;
  int contracted = 0;

  ScriptedClimb(const detect::Options& options, LevelSize size0,
                const std::vector<ScriptedLevel>& script,
                obs::Recorder* rec = nullptr) {
    climb_levels(
        options, size0, result, rec,
        [&](int level, double threshold) {
          thresholds.push_back(threshold);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          return script.at(static_cast<std::size_t>(level)).phase;
        },
        [&](int level) {
          ++contracted;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          return script.at(static_cast<std::size_t>(level)).next;
        });
  }
};

detect::Options scripted_options() {
  detect::Options options;
  options.thresholds.t_bin = 0.1;
  options.thresholds.t_final = 1e-3;
  options.thresholds.adaptive_limit = 100;
  return options;
}

TEST(LevelLoop, PhaseThresholdIsTBinAboveTheLimitWhileTheStopUsesTFinal) {
  // Level 1 gains 0.05: below t_bin, above t_final, so the climb goes
  // on. Level 2 gains 5e-4 < t_final and is the last.
  const std::vector<ScriptedLevel> script = {
      {{3, 0.30, 0.1}, {500, 4000}},
      {{2, 0.35, 0.1}, {50, 300}},
      {{2, 0.3505, 0.1}, {20, 100}},
      {{1, 0.36, 0.1}, {10, 40}},
  };
  const ScriptedClimb climb(scripted_options(), {1000, 9000}, script);
  EXPECT_EQ(climb.thresholds, (std::vector<double>{0.1, 0.1, 1e-3}));
  EXPECT_EQ(climb.result.levels.size(), 3u);
  // The stopping level is still contracted and folded.
  EXPECT_EQ(climb.contracted, 3);
}

TEST(LevelLoop, AdaptiveOffUsesTFinalEverywhere) {
  detect::Options options = scripted_options();
  options.thresholds.adaptive = false;
  const std::vector<ScriptedLevel> script = {
      {{3, 0.30, 0.1}, {500, 4000}},
      {{2, 0.3001, 0.1}, {50, 300}},
  };
  const ScriptedClimb climb(options, {1000, 9000}, script);
  EXPECT_EQ(climb.thresholds, (std::vector<double>{1e-3, 1e-3}));
  EXPECT_EQ(climb.result.levels.size(), 2u);
}

TEST(LevelLoop, ALevelWhoseContractionDoesNotShrinkIsTheLast) {
  const std::vector<ScriptedLevel> script = {
      {{3, 0.30, 0.1}, {500, 4000}},
      {{2, 0.50, 0.1}, {500, 4000}},  // no community merged
      {{1, 0.60, 0.1}, {10, 40}},
  };
  const ScriptedClimb climb(scripted_options(), {1000, 9000}, script);
  EXPECT_EQ(climb.result.levels.size(), 2u);
  EXPECT_EQ(climb.result.modularity, 0.50);
}

TEST(LevelLoop, MaxLevelsCapsTheClimb) {
  detect::Options options = scripted_options();
  options.max_levels = 2;
  const std::vector<ScriptedLevel> script = {
      {{3, 0.30, 0.1}, {500, 4000}},
      {{2, 0.50, 0.1}, {50, 300}},
      {{1, 0.70, 0.1}, {10, 40}},
  };
  const ScriptedClimb climb(options, {1000, 9000}, script);
  EXPECT_EQ(climb.result.levels.size(), 2u);
  EXPECT_EQ(climb.contracted, 2);
  EXPECT_EQ(climb.result.modularity, 0.50);
}

TEST(LevelLoop, EveryReportFieldIsSetAndTepsIsLevelZerosFirstSweep) {
  const std::vector<ScriptedLevel> script = {
      {{7, 0.25, 0.5}, {400, 3000}},
      {{4, 0.40, 0.125}, {60, 500}},
      {{2, 0.4004, 0.25}, {30, 200}},
  };
  const ScriptedClimb climb(scripted_options(), {1000, 8000}, script);
  const auto& levels = climb.result.levels;
  ASSERT_EQ(levels.size(), 3u);
  const std::vector<LevelSize> entering = {{1000, 8000}, {400, 3000}, {60, 500}};
  for (std::size_t l = 0; l < levels.size(); ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(levels[l].vertices, entering[l].vertices);
    EXPECT_EQ(levels[l].arcs, entering[l].arcs);
    EXPECT_EQ(levels[l].iterations, script[l].phase.sweeps);
    EXPECT_EQ(levels[l].modularity_after, script[l].phase.modularity);
    EXPECT_EQ(levels[l].modularity_before,
              l == 0 ? 0.0 : script[l - 1].phase.modularity);
    EXPECT_GE(levels[l].optimize_seconds, 50e-6);
    EXPECT_GE(levels[l].aggregate_seconds, 50e-6);
  }
  EXPECT_EQ(climb.result.modularity, script.back().phase.modularity);
  EXPECT_DOUBLE_EQ(climb.result.first_phase_teps, 8000 / 0.5);
}

TEST(LevelLoop, RecorderSeesOneLevelCounterPairPerLevel) {
  const std::vector<ScriptedLevel> script = {
      {{3, 0.30, 0.1}, {500, 4000}},
      {{2, 0.50, 0.1}, {50, 300}},
      {{1, 0.5001, 0.1}, {10, 40}},
  };
  obs::Recorder rec;
  const ScriptedClimb climb(scripted_options(), {1000, 9000}, script, &rec);
  ASSERT_EQ(climb.result.levels.size(), 3u);
  EXPECT_EQ(rec.current_level(), -1);
  std::vector<double> vertices(3, 0);
  std::vector<double> arcs(3, 0);
  int records = 0;
  for (const obs::CounterRecord& c : rec.counters()) {
    const std::string_view name = rec.name(c.name);
    if (name != "level/vertices" && name != "level/arcs") continue;
    ++records;
    ASSERT_GE(c.level, 0);
    ASSERT_LT(c.level, 3);
    (name == "level/vertices" ? vertices
                              : arcs)[static_cast<std::size_t>(c.level)] =
        c.value;
  }
  // Repeated counts of one (name, level) add up in one record, so a
  // value equal to the level's size means it was counted exactly once.
  EXPECT_EQ(records, 6);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(vertices[l], climb.result.levels[l].vertices);
    EXPECT_EQ(arcs[l], climb.result.levels[l].arcs);
  }
}

}  // namespace
}  // namespace glouvain::core
