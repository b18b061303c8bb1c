// Workspace arena contract tests: (a) the modopt + aggregation loop is
// allocation-free once the arena has warmed to the graph (the paper's
// cudaMalloc-once discipline, checked with a counting global operator
// new), and (b) reusing a dirty workspace across graphs and runs never
// perturbs results — partitions and modularities are bitwise identical
// to a fresh-device run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>
#include <vector>

#ifdef GLOUVAIN_TRACE_ALLOCS
#include <cstdio>
#include <execinfo.h>
#endif

#include "check/check.hpp"
#include "core/aggregate.hpp"
#include "core/buckets.hpp"
#include "core/community_weights.hpp"
#include "core/louvain.hpp"
#include "core/modopt.hpp"
#include "core/move_kernels.hpp"
#include "core/workspace.hpp"
#include "detect/detector.hpp"
#include "gen/churn.hpp"
#include "gen/er.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/sbm.hpp"
#include "obs/recorder.hpp"
#include "stream/apply.hpp"
#include "stream/session.hpp"

// --- Global allocation counter -------------------------------------
//
// Replacing the usual (and the aligned) operator new in this binary
// lets a test open a counting window around the hot loop; nothrow and
// array forms funnel through these per the standard's defaults.
// GCC flags free() against the replaced operator new, but these
// operators ARE malloc-based, so the pairing is right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

// Build with -DGLOUVAIN_TRACE_ALLOCS (and -g -rdynamic) to get a
// backtrace for every counted allocation when hunting a failure here.
void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
#ifdef GLOUVAIN_TRACE_ALLOCS
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, 2);
    std::fputs("----\n", stderr);
#endif
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t al) {
  note_alloc();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace glouvain::core {
namespace {

using graph::Community;
using graph::VertexId;

// --- (a) zero allocations once warm ---------------------------------

/// Runs modopt + aggregation on `g` three times through one workspace
/// and expects iterations 2 and 3 to allocate nothing.
void expect_warm_loop_allocation_free(const graph::Csr& g) {
  simt::Device device;
  Config cfg;
  Workspace ws;
  PhaseState state;

  const auto iterate = [&] {
    state.reset(g, device);
    optimize_phase(device, g, cfg, state,
                   std::span<const VertexId>{}, 1e-6, ws, nullptr);
    AggregationResult agg =
        aggregate(device, g, state.community, ws, nullptr);
    // Feed the level's products back, as the level driver does.
    ws.recycle(std::move(agg.contracted));
    ws.put(std::move(agg.new_id));
  };

  iterate();  // iteration 1 warms every slot, pool and scratch chunk

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  iterate();  // iteration 2 runs warm
  iterate();  // and steady state stays clean
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "warm modopt+aggregation iterations must not touch the heap";
}

TEST(WorkspaceAllocations, WarmModoptAggregateLoopIsAllocationFree) {
  if constexpr (check::enabled()) {
    GTEST_SKIP() << "simtcheck shadow map allocates inside kernels";
  }
  {
    SCOPED_TRACE("rmat");
    // Degrees span the shared buckets and the global bucket (rmat hubs).
    expect_warm_loop_allocation_free(
        gen::rmat({.scale = 11, .edge_factor = 8}, 5));
  }
  {
    SCOPED_TRACE("road");
    // No vertex is above the register path, so modopt takes no
    // accumulators and aggregation grows them first.
    const graph::Csr road =
        gen::road_network({.grid_nx = 64, .grid_ny = 64, .seed = 3});
    ASSERT_LE(max_row_degree(road), detail::kSmallMoveDegree);
    expect_warm_loop_allocation_free(road);
  }
}

// The last contracted level of a run returns to the workspace, so a
// second run on the same Louvain draws every aggregation's contracted
// arrays from the pools: no level falls back to the heap.
TEST(WorkspaceAllocations, SecondRunAggregatesWithoutHeapFallbacks) {
  gen::SbmParams sbm;
  sbm.num_vertices = 20000;
  sbm.num_communities = 400;
  sbm.intra_degree = 12.0;
  sbm.inter_degree = 2.0;
  sbm.seed = 1;
  const auto planted = gen::planted_partition(sbm);

  Louvain runner;
  (void)runner.run(planted.graph);
  obs::Recorder rec;
  const Result second = runner.run(planted.graph, &rec);
  ASSERT_GE(second.levels.size(), 2u);
  int aggregations = 0;
  for (const obs::CounterRecord& c : rec.counters()) {
    if (rec.name(c.name) != "aggregate/ws_heap_fallbacks") continue;
    ++aggregations;
    EXPECT_EQ(c.value, 0.0) << "level " << c.level;
  }
  EXPECT_GT(aggregations, 0);
}

TEST(WorkspaceFootprint, HeldBytesCountsBinningResults) {
  // 32k items take the parallel counting-sort path of the binning.
  constexpr std::size_t kItems = 1 << 15;
  Workspace ws;
  const auto bin_into = [&](Binned& out) {
    bin_by_key_into(
        kItems, BucketScheme::paper_modopt(),
        [](VertexId v) { return graph::EdgeIdx{v % 400}; }, 1,
        [](VertexId) { return 0u; }, out, ws.scratch());
  };
  // A first binning into storage the workspace does not own grows its
  // scratch to what the second one needs, so only the order and offset
  // vectors can account for any growth below.
  Binned outside;
  bin_into(outside);
  const std::size_t before = ws.held_bytes();
  Binned& binned = ws.modopt_binned();
  bin_into(binned);
  ASSERT_EQ(binned.order.size(), kItems);
  EXPECT_GE(ws.held_bytes(),
            before + binned.order.capacity() * sizeof(VertexId));
}

TEST(WorkspaceFootprint, HeldBytesCountsAccumulators) {
  Workspace ws;
  const std::size_t before = ws.held_bytes();
  const std::span<CommunityWeights> acc = ws.accumulators(4, 1000, 64);
  ASSERT_EQ(acc.size(), 4u);
  const std::size_t one = 1000 * sizeof(graph::Weight) + 64 * sizeof(Community);
  EXPECT_GE(ws.held_bytes(), before + 4 * one);
  // Grow-only in workers, ids and touched capacity: a smaller request
  // keeps what the larger one built.
  const std::size_t grown = ws.held_bytes();
  EXPECT_EQ(ws.accumulators(2, 10, 8).size(), 2u);
  EXPECT_EQ(ws.held_bytes(), grown);
  ws.accumulators(4, 2000, 64);
  EXPECT_GE(ws.held_bytes(), grown + 4 * 1000 * sizeof(graph::Weight));
}

// --- (b) dirty workspace == fresh device, bitwise -------------------

TEST(WorkspaceReuse, CoreDirtyWorkspaceMatchesFreshRun) {
  const auto a = gen::rmat({.scale = 10, .edge_factor = 8}, 3);
  const auto b = gen::erdos_renyi(1500, 9000, 11);

  Louvain reused;
  (void)reused.run(a);  // dirty the workspace with a different graph
  const Result warm = reused.run(b);

  Louvain fresh;
  const Result cold = fresh.run(b);

  EXPECT_EQ(warm.community, cold.community);
  EXPECT_EQ(warm.modularity, cold.modularity);  // bitwise, not NEAR
  ASSERT_EQ(warm.levels.size(), cold.levels.size());
  for (std::size_t l = 0; l < warm.levels.size(); ++l) {
    EXPECT_EQ(warm.levels[l].vertices, cold.levels[l].vertices);
    EXPECT_EQ(warm.levels[l].iterations, cold.levels[l].iterations);
    EXPECT_EQ(warm.levels[l].modularity_after, cold.levels[l].modularity_after);
  }
}

TEST(WorkspaceReuse, RepeatedRunsOnSameGraphAreIdentical) {
  const auto g = gen::rmat({.scale = 10, .edge_factor = 8}, 7);
  Louvain runner;
  const Result first = runner.run(g);
  const Result second = runner.run(g);
  const Result third = runner.run(g);
  EXPECT_EQ(first.community, second.community);
  EXPECT_EQ(first.modularity, second.modularity);
  EXPECT_EQ(second.community, third.community);
  EXPECT_EQ(second.modularity, third.modularity);
}

TEST(WorkspaceReuse, SeqDetectorReuseMatchesFreshDetector) {
  const auto a = gen::rmat({.scale = 9, .edge_factor = 8}, 3);
  const auto b = gen::erdos_renyi(1200, 7000, 13);
  detect::Options opts;

  auto reused = detect::make("seq");
  ASSERT_TRUE(reused.ok());
  (void)(*reused)->run(a, opts);
  const detect::Result warm = (*reused)->run(b, opts);

  auto fresh = detect::make("seq");
  ASSERT_TRUE(fresh.ok());
  const detect::Result cold = (*fresh)->run(b, opts);

  EXPECT_EQ(warm.community, cold.community);
  EXPECT_EQ(warm.modularity, cold.modularity);
}

// One stream warm-start epoch: the session's detector and rebuild
// arena are both dirty from the initial cold detection, and its result
// must still be bitwise what a fresh detector produces for the same
// (post-delta graph, seed, touched endpoints) warm request.
TEST(WorkspaceReuse, StreamWarmEpochMatchesFreshWarmRun) {
  gen::SbmParams sbm;
  sbm.num_vertices = 2000;
  sbm.num_communities = 20;
  sbm.intra_degree = 10.0;
  sbm.inter_degree = 2.0;
  sbm.seed = 11;
  auto planted = gen::planted_partition(sbm);

  gen::ChurnParams churn;
  churn.epochs = 1;
  churn.churn_fraction = 0.01;
  churn.seed = 12;
  const auto deltas = gen::churn(planted.graph, planted.ground_truth, churn);
  ASSERT_EQ(deltas.size(), 1u);

  auto session = stream::Session::open(planted.graph, {});
  ASSERT_TRUE(session.ok());
  const std::vector<Community> seed_partition = session->community();
  ASSERT_TRUE(session->apply(deltas[0]).ok());

  // Replay the session's pipeline with everything fresh.
  stream::ApplyResult applied = stream::apply_delta(planted.graph, deltas[0]);
  auto warm = std::make_shared<detect::WarmStart>();
  warm->frontier = applied.touched;
  warm->seed = seed_partition;
  warm->seed.resize(applied.graph.num_vertices());
  for (std::size_t v = seed_partition.size();
       v < warm->seed.size(); ++v) {
    warm->seed[v] = static_cast<Community>(v);
  }
  detect::Options opts;
  opts.warm_start = std::move(warm);
  auto fresh = detect::make("core");
  ASSERT_TRUE(fresh.ok());
  const detect::Result cold = (*fresh)->run(applied.graph, opts);

  EXPECT_EQ(session->community(), cold.community);
  EXPECT_EQ(session->result().modularity, cold.modularity);
}

}  // namespace
}  // namespace glouvain::core
