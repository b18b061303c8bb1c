// Backend-conformance suite for the unified detect:: API: every
// registered Detector must produce valid labels and comparable
// modularity on the same seeded inputs, and must emit a well-formed
// span tree when a Recorder is attached.
#include "detect/detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "obs/recorder.hpp"
#include "svc/service.hpp"
#include "zg/container.hpp"

namespace glouvain {
namespace {

graph::Csr sbm_graph() {
  gen::SbmParams p;
  p.num_vertices = 1 << 11;
  p.num_communities = 16;
  p.intra_degree = 12.0;
  p.inter_degree = 2.0;
  p.seed = 42;
  return gen::planted_partition(p).graph;
}

graph::Csr rmat_graph() {
  gen::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8.0;
  return gen::rmat(p, 7);
}

detect::Options small_options() {
  detect::Options options;
  options.threads = 2;
  return options;
}

// The registry's built-in backends, captured during static
// initialisation: before RegisterExtendsAndRejectsDuplicates adds its
// fake, whatever order the tests run in.
const std::vector<std::string> kBuiltInBackends = detect::backend_names();

void check_labels(const detect::Result& result, graph::VertexId n,
                  const std::string& backend) {
  ASSERT_EQ(result.community.size(), static_cast<std::size_t>(n)) << backend;
  for (const graph::Community c : result.community) {
    ASSERT_LT(c, n) << backend;
  }
}

TEST(DetectRegistry, BuiltInBackendsAreRegistered) {
  const std::set<std::string> have(kBuiltInBackends.begin(),
                                   kBuiltInBackends.end());
  for (const char* expected : {"core", "seq", "plm", "shard"}) {
    EXPECT_TRUE(have.count(expected)) << expected;
  }
}

TEST(DetectRegistry, UnknownBackendYieldsInvalidArgument) {
  const auto d = detect::make("no-such-backend");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DetectRegistry, RegisterExtendsAndRejectsDuplicates) {
  struct Fake : detect::Detector {
    std::string_view name() const noexcept override { return "fake"; }
    detect::Result run(const graph::Csr&, const detect::Options&,
                       obs::Recorder*) override {
      return {};
    }
  };
  const bool added = detect::register_backend(
      "conformance-fake", [](const detect::Extensions&) {
        return std::make_unique<Fake>();
      });
  EXPECT_TRUE(added);
  EXPECT_FALSE(detect::register_backend(
      "conformance-fake",
      [](const detect::Extensions&) { return std::make_unique<Fake>(); }));
  const auto d = detect::make("conformance-fake");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->name(), "fake");
}

TEST(DetectConformance, EveryBackendAgreesOnPlantedCommunities) {
  const graph::Csr g = sbm_graph();
  const auto options = small_options();

  auto seq = detect::make("seq");
  ASSERT_TRUE(seq.ok());
  const detect::Result reference = (*seq)->run(g, options);
  ASSERT_GT(reference.modularity, 0.3);

  for (const std::string& backend : kBuiltInBackends) {
    SCOPED_TRACE(backend);
    auto d = detect::make(backend);
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    const detect::Result result = (*d)->run(g, options);
    check_labels(result, g.num_vertices(), backend);
    EXPECT_NEAR(result.modularity, reference.modularity, 0.08);
    EXPECT_FALSE(result.levels.empty());
  }
}

TEST(DetectConformance, EveryBackendHandlesSkewedDegrees) {
  const graph::Csr g = rmat_graph();
  const auto options = small_options();
  for (const std::string& backend : kBuiltInBackends) {
    SCOPED_TRACE(backend);
    auto d = detect::make(backend);
    ASSERT_TRUE(d.ok());
    const detect::Result result = (*d)->run(g, options);
    check_labels(result, g.num_vertices(), backend);
    EXPECT_GE(result.modularity, 0.0);
  }
}

// Every backend climbs the same level loop (core::climb_levels), so
// its reports obey one contract: level l+1 enters with one vertex per
// community level l left, and starts from the modularity level l ended
// at.
TEST(DetectConformance, EveryBackendReportsOneLevelContract) {
  const auto options = small_options();
  for (const graph::Csr& g : {sbm_graph(), rmat_graph()}) {
    for (const std::string& backend : kBuiltInBackends) {
      SCOPED_TRACE(backend);
      auto d = detect::make(backend);
      ASSERT_TRUE(d.ok());
      const detect::Result result = (*d)->run(g, options);
      const auto& levels = result.levels;
      ASSERT_FALSE(levels.empty());
      ASSERT_EQ(result.dendrogram.num_levels(), levels.size());
      EXPECT_EQ(levels[0].vertices, g.num_vertices());
      for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
        EXPECT_EQ(levels[l + 1].vertices,
                  result.dendrogram.communities_at_level(l));
        EXPECT_EQ(levels[l + 1].modularity_before, levels[l].modularity_after);
      }
      EXPECT_EQ(result.modularity, levels.back().modularity_after);
      EXPECT_GT(result.first_phase_teps, 0.0);
    }
  }
}

TEST(DetectConformance, EveryBackendEmitsAWellFormedSpanTree) {
  const graph::Csr g = sbm_graph();
  const auto options = small_options();
  for (const std::string& backend : kBuiltInBackends) {
    SCOPED_TRACE(backend);
    auto d = detect::make(backend);
    ASSERT_TRUE(d.ok());
    obs::Recorder rec;
    const detect::Result result = (*d)->run(g, options, &rec);
    EXPECT_TRUE(rec.validate().empty()) << rec.validate();
    EXPECT_FALSE(rec.spans().empty());
    // Recorded root spans cannot exceed the run's own wall clock by
    // more than scheduling noise.
    EXPECT_LE(rec.recorded_seconds(), result.total_seconds + 0.25);
    // Every backend must at least time the two Louvain phases.
    std::set<std::string> names;
    for (const obs::SpanRecord& s : rec.spans()) {
      names.insert(std::string(rec.name(s.name)));
    }
    EXPECT_TRUE(names.count("modopt")) << backend;
    EXPECT_TRUE(names.count("aggregate")) << backend;
  }
}

TEST(DetectConformance, CoreSpansCoverTheKernelStages) {
  const graph::Csr g = rmat_graph();
  auto d = detect::make("core");
  ASSERT_TRUE(d.ok());
  obs::Recorder rec;
  (void)(*d)->run(g, small_options(), &rec);
  std::set<std::string> names;
  for (const obs::SpanRecord& s : rec.spans()) {
    names.insert(std::string(rec.name(s.name)));
  }
  EXPECT_TRUE(names.count("modopt/binning"));
  EXPECT_TRUE(names.count("modopt/sweep"));
  EXPECT_TRUE(names.count("modopt/commit"));
  EXPECT_TRUE(names.count("aggregate/binning"));
  EXPECT_TRUE(names.count("fold"));
  // At least one degree-bucket kernel span in each phase.
  EXPECT_TRUE(std::any_of(names.begin(), names.end(), [](const std::string& n) {
    return n.rfind("modopt/bucket", 0) == 0 && n != "modopt/bucket_occupancy";
  }));
  EXPECT_TRUE(std::any_of(names.begin(), names.end(), [](const std::string& n) {
    return n.rfind("aggregate/bucket", 0) == 0 &&
           n != "aggregate/bucket_occupancy";
  }));
}

TEST(DetectConformance, DetectorsAreReusableAcrossRuns) {
  const graph::Csr a = sbm_graph();
  const graph::Csr b = rmat_graph();
  auto d = detect::make("core");
  ASSERT_TRUE(d.ok());
  const detect::Result ra = (*d)->run(a, small_options());
  const detect::Result rb = (*d)->run(b, small_options());
  check_labels(ra, a.num_vertices(), "core run 1");
  check_labels(rb, b.num_vertices(), "core run 2");
}

// --- Entry-point matrix (DESIGN.md §12-13). The input type alone picks
// the storage: run(g) reads plain rows, run_z(ZCsr::encode(g))
// compressed rows in memory, and run_z on a mapped .zg container the
// same rows from a file. The scalar lane substrate is the bitwise
// reference across all three. The vector substrate gives the scalar
// labels, while its modularity, whose row sums re-associate, answers
// to a quality bar (>=98% of the sequential modularity).

/// One graph behind the three entry points. The container lives in a
/// per-test temp directory: ctest -j runs tests as concurrent processes.
struct EntryPoints {
  explicit EntryPoints(const graph::Csr& graph)
      : g(graph),
        z(zg::ZCsr::encode(graph)),
        dir(std::filesystem::temp_directory_path() /
            (std::string("glouvain_conformance_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    std::filesystem::create_directories(dir);
    const std::string file = (dir / "g.zg").string();
    if (!zg::save(z, file).ok()) return;
    auto m = zg::MappedGraph::open(file);
    if (m.ok()) mapped.emplace(std::move(m).value());
  }
  ~EntryPoints() { std::filesystem::remove_all(dir); }
  EntryPoints(const EntryPoints&) = delete;
  EntryPoints& operator=(const EntryPoints&) = delete;

  /// Each entry point's result, labelled for SCOPED_TRACE. Callers
  /// assert `mapped` first.
  std::vector<std::pair<std::string, detect::Result>> run_all(
      detect::Detector& d, const detect::Options& options) const {
    std::vector<std::pair<std::string, detect::Result>> out;
    out.emplace_back("run", d.run(g, options));
    out.emplace_back("run_z encoded", d.run_z(z, options));
    out.emplace_back("run_z mapped", d.run_z(mapped->zcsr(), options));
    return out;
  }

  const graph::Csr& g;
  zg::ZCsr z;
  std::filesystem::path dir;
  std::optional<zg::MappedGraph> mapped;
};

TEST(DetectConformance, ScalarDeviceIsBitwiseStableAcrossEntryPoints) {
  const graph::Csr g = sbm_graph();
  const EntryPoints entry(g);
  ASSERT_TRUE(entry.mapped);
  detect::Options options = small_options();
  options.device = simt::Backend::kScalar;
  // core on the scalar device and seq both read compressed rows natively.
  for (const char* backend : {"core", "seq"}) {
    auto d = detect::make(backend);
    ASSERT_TRUE(d.ok());
    const auto results = entry.run_all(**d, options);
    const detect::Result& reference = results.front().second;
    check_labels(reference, g.num_vertices(), backend);
    for (const auto& [entry_point, result] : results) {
      SCOPED_TRACE(std::string(backend) + " " + entry_point);
      // Bitwise: the same labels, not merely the same modularity.
      EXPECT_EQ(result.community, reference.community);
      EXPECT_EQ(result.modularity, reference.modularity);
    }
  }
}

TEST(DetectConformance, VectorDeviceMeetsQualityParityAcrossTheMatrix) {
  const graph::Csr g = sbm_graph();
  auto seq = detect::make("seq");
  ASSERT_TRUE(seq.ok());
  const double seq_q = (*seq)->run(g, small_options()).modularity;
  ASSERT_GT(seq_q, 0.3);

  const EntryPoints entry(g);
  ASSERT_TRUE(entry.mapped);
  auto d = detect::make("core");
  ASSERT_TRUE(d.ok());
  detect::Options options = small_options();
  options.device = simt::Backend::kScalar;
  const auto scalar = entry.run_all(**d, options);
  options.device = simt::Backend::kVector;
  const auto vector = entry.run_all(**d, options);
  ASSERT_EQ(vector.size(), scalar.size());
  for (std::size_t i = 0; i < vector.size(); ++i) {
    const auto& [entry_point, result] = vector[i];
    SCOPED_TRACE(entry_point);
    check_labels(result, g.num_vertices(), "vector");
    EXPECT_GE(result.modularity, 0.98 * seq_q);
    // Both substrates evaluate each gain bitwise-equally and take the
    // same total-order maximum, so the vector partition is the scalar
    // one. The vector modularity row sums re-associate, so only the
    // labels are compared.
    EXPECT_EQ(result.community, scalar[i].second.community);
  }
}

TEST(DetectConformance, EveryBackendRunsCompressedInput) {
  // Backends without a native compressed path (plm, shard) reach run_z
  // through the base class's decode fallback.
  const graph::Csr g = sbm_graph();
  const auto options = small_options();
  auto seq = detect::make("seq");
  ASSERT_TRUE(seq.ok());
  const double seq_q = (*seq)->run(g, options).modularity;

  const EntryPoints entry(g);
  ASSERT_TRUE(entry.mapped);
  for (const std::string& backend : kBuiltInBackends) {
    SCOPED_TRACE(backend);
    auto d = detect::make(backend);
    ASSERT_TRUE(d.ok());
    const detect::Result result = (*d)->run_z(entry.mapped->zcsr(), options);
    check_labels(result, g.num_vertices(), backend);
    EXPECT_NEAR(result.modularity, seq_q, 0.08);
  }
}

TEST(DetectConformance, AutoDeviceMatchesItsResolution) {
  // kAuto must behave exactly like whatever it resolves to on this
  // machine — one detector instance, re-run across the switch, so the
  // registry's backend-aware runner rebuild is exercised too.
  const graph::Csr g = sbm_graph();
  auto d = detect::make("core");
  ASSERT_TRUE(d.ok());
  detect::Options options = small_options();
  options.device = simt::Backend::kAuto;
  const detect::Result auto_run = (*d)->run(g, options);
  options.device = simt::resolve_backend(simt::Backend::kAuto);
  const detect::Result resolved_run = (*d)->run(g, options);
  EXPECT_EQ(auto_run.community, resolved_run.community);
}

TEST(DetectConformance, CoreDetectorRebuildsOnThreadChange) {
  // One detector, three thread counts: the warm runner rebuilds its
  // device whenever Options::threads changes, in either direction.
  const graph::Csr g = sbm_graph();
  auto d = detect::make("core");
  ASSERT_TRUE(d.ok());
  detect::Options options = small_options();
  for (const unsigned threads : {1u, 2u, 1u}) {
    options.threads = threads;
    EXPECT_EQ((*d)->run(g, options).device.workers, threads);
  }
}

TEST(DetectConformance, CoreDetectorRebuildsOnLaneBackendChange) {
  // A scalar run after a vector run on the same detector runs on a
  // scalar device: the bits of a fresh scalar detector.
  const graph::Csr g = sbm_graph();
  auto reused = detect::make("core");
  auto fresh = detect::make("core");
  ASSERT_TRUE(reused.ok() && fresh.ok());
  detect::Options options = small_options();
  options.device = simt::Backend::kVector;
  (void)(*reused)->run(g, options);
  options.device = simt::Backend::kScalar;
  const detect::Result again = (*reused)->run(g, options);
  const detect::Result reference = (*fresh)->run(g, options);
  EXPECT_EQ(again.community, reference.community);
  EXPECT_EQ(again.modularity, reference.modularity);
}

TEST(DetectConformance, ServiceRunsEveryBackend) {
  svc::ServiceConfig cfg;
  cfg.devices = 1;
  cfg.aux_workers = 1;
  cfg.options.threads = 2;
  const graph::Csr g = sbm_graph();
  svc::Service service(cfg);
  for (const std::string b : {"core", "seq", "plm", "shard"}) {
    SCOPED_TRACE(b);
    svc::JobOptions jo;
    jo.backend = b;
    jo.use_cache = false;
    const auto id = service.try_submit(g, jo);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    const svc::JobResult r = service.wait(*id);
    EXPECT_EQ(r.status, svc::JobStatus::Completed) << r.error;
    ASSERT_TRUE(r.result);
    EXPECT_GT(r.result->modularity, 0.3);
    EXPECT_TRUE(svc::to_status(r).ok());
  }
}

}  // namespace
}  // namespace glouvain
