// Cross-module integration tests: all three Louvain implementations on
// the full generator suite, quality parity, and pipeline plumbing
// (IO -> detect -> compare).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/louvain.hpp"
#include "gen/suite.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "metrics/compare.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "plm/plm.hpp"
#include "seq/louvain.hpp"

namespace glouvain {
namespace {

/// Tiny-scale instance of every suite family.
class SuiteQuality : public ::testing::TestWithParam<std::string> {
 protected:
  graph::Csr make() {
    return gen::suite_entry(GetParam()).build(/*scale=*/0.03, /*seed=*/1);
  }
};

INSTANTIATE_TEST_SUITE_P(AllFamilies, SuiteQuality,
                         ::testing::ValuesIn(gen::suite_names()),
                         [](const auto& p) { return p.param; });

TEST_P(SuiteQuality, CoreTracksSequentialPerGraph) {
  const auto g = make();
  const auto rs = seq::louvain(g);
  const auto rc = core::louvain(g);
  // Paper Figure 1 claims the AVERAGE relative modularity stays >= 98%
  // (tested below); per graph we allow a 3% band with an absolute
  // fallback for degenerate Q ~ 0 cases.
  EXPECT_GT(rc.modularity, rs.modularity - std::max(0.03 * std::abs(rs.modularity), 0.02))
      << "seq=" << rs.modularity << " core=" << rc.modularity;
}

TEST(Integration, AverageRelativeModularityAtLeast98Percent) {
  // The paper's headline quality claim (Figure 1): with thresholds
  // (t_bin, t_final) = (1e-2, 1e-6) the GPU algorithm's modularity
  // averages >= 98-99% of sequential across the suite.
  double sum_ratio = 0;
  int count = 0;
  for (const auto& name : gen::suite_names()) {
    const auto g = gen::suite_entry(name).build(0.03, 1);
    const double qs = seq::louvain(g).modularity;
    const double qc = core::louvain(g).modularity;
    if (qs > 0.05) {
      sum_ratio += qc / qs;
      ++count;
    }
  }
  ASSERT_GT(count, 5);
  EXPECT_GT(sum_ratio / count, 0.98);
}

TEST_P(SuiteQuality, AllThreeProduceValidPartitions) {
  const auto g = make();
  for (auto community : {seq::louvain(g).community, plm::louvain(g).community,
                         core::louvain(g).community}) {
    ASSERT_EQ(community.size(), g.num_vertices());
    // Labels are dense after each pipeline's renumbering.
    auto labels = community;
    const auto k = metrics::renumber(labels);
    EXPECT_GT(k, 0u);
    EXPECT_LE(k, g.num_vertices());
    EXPECT_EQ(labels, community);  // already dense
  }
}

TEST(Integration, PartitionsAgreeOnStructuredFamilies) {
  // Louvain is order-dependent, and on graphs without a crisp community
  // structure (dense social graphs, meshes) different optimizers find
  // genuinely different near-optimal partitions. On families with real
  // structure the partitions must broadly agree; NMI of independent
  // partitions would be near 0.
  for (const char* name : {"community", "road", "trace", "rgg"}) {
    const auto g = gen::suite_entry(name).build(0.03, 1);
    const auto a = core::louvain(g).community;
    const auto b = seq::louvain(g).community;
    EXPECT_GT(metrics::nmi(a, b), 0.5) << name;
  }
}

TEST(Integration, FileRoundTripThenDetect) {
  const auto dir = std::filesystem::temp_directory_path() / "glouvain_integ";
  std::filesystem::create_directories(dir);
  const auto g = gen::suite_entry("community").build(0.03, 5);
  const std::string path = (dir / "g.bin").string();
  ASSERT_TRUE(graph::try_save_binary(g, path).ok());
  const auto loaded = graph::try_load_auto(path).value();
  ASSERT_EQ(loaded, g);
  const auto result = core::louvain(loaded);
  EXPECT_GT(result.modularity, 0.3);
  std::filesystem::remove_all(dir);
}

TEST(Integration, CoreBeatsOrMatchesPlmQualityOnAverage) {
  // Average relative modularity across families: core within 1% of plm.
  double sum_ratio = 0;
  int count = 0;
  for (const auto& name : gen::suite_names()) {
    const auto g = gen::suite_entry(name).build(0.02, 3);
    const double qp = plm::louvain(g).modularity;
    const double qc = core::louvain(g).modularity;
    if (qp > 0.05) {
      sum_ratio += qc / qp;
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(sum_ratio / count, 0.98);
}

TEST(Integration, HierarchyIsConsistent) {
  // Flattened community of the full run must reproduce the final
  // modularity when evaluated on the ORIGINAL graph — the multi-level
  // plumbing (renumber, flatten, new_id) has no slack if this holds.
  const auto g = gen::suite_entry("fem3d").build(0.02, 7);
  for (int seed = 0; seed < 3; ++seed) {
    const auto result = core::louvain(g);
    EXPECT_NEAR(metrics::modularity(g, result.community), result.modularity, 1e-7);
  }
}

}  // namespace
}  // namespace glouvain
