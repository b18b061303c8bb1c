// Tests for the simtcheck race/contract checker (src/check/). Two
// halves, mirroring how compute-sanitizer is validated:
//
//  * seeded bugs — deliberately broken kernels (a shared-arena table
//    used by two tasks of one launch, a double slot claim, stale
//    shared-memory reuse, a nested launch, an aliased workspace) MUST
//    be detected and attributed with kernel name + task ids. These
//    guard the checker itself against rot: the CI `check` job fails if
//    a seeded bug goes unreported.
//  * clean runs — the real detection pipeline (core Louvain end to
//    end, and a multi-job svc stress) must produce ZERO violations
//    under full instrumentation.
//
// Determinism: seeded kernels run on a single-worker device, where
// tasks execute serially in task order on the calling thread, so the
// access interleaving the checker sees is schedule-independent.
//
// Every test skips itself when the checker is compiled out
// (non-GLOUVAIN_SIMTCHECK builds): the hooks are no-ops there and the
// registry never fills.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "core/hash_map.hpp"
#include "core/louvain.hpp"
#include "core/workspace.hpp"
#include "gen/rmat.hpp"
#include "graph/types.hpp"
#include "simt/atomics.hpp"
#include "simt/device.hpp"
#include "simt/shared_arena.hpp"
#include "svc/service.hpp"

namespace glouvain {
namespace {

using graph::Community;
using graph::Weight;

constexpr Community kNull = core::LocalCommunityHashMap::kNull;
constexpr std::size_t kCap = 17;  // prime, as the table requires

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!check::enabled()) {
      GTEST_SKIP() << "built without GLOUVAIN_SIMTCHECK";
    }
    check::reset();
  }
};

bool has_kind(const check::Report& report, check::ViolationKind kind) {
  for (const auto& v : report.violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

const check::Violation* find_kind(const check::Report& report,
                                  check::ViolationKind kind) {
  for (const auto& v : report.violations) {
    if (v.kind == kind) return &v;
  }
  return nullptr;
}

// --- Seeded bugs ----------------------------------------------------

// The classic escaped-shared-memory bug: a hash table allocated from a
// SharedArena before the launch, then used by BOTH tasks. Task 0 claims
// the slot for community 7; task 1 sees the key present and plain-adds
// to the same weight cell — a write/write race on shared-arena storage.
TEST_F(CheckTest, DetectsSeededSharedArenaRace) {
  simt::Device device({.worker_threads = 1});
  simt::SharedArena arena(4096);
  auto keys = arena.alloc<Community>(kCap);
  auto weights = arena.alloc<Weight>(kCap);
  for (auto& k : keys) k = kNull;  // host-side init: not part of a launch
  for (auto& w : weights) w = 0;

  check::KernelScope scope("seeded/arena_race");
  device.launch(2, 1, [&](simt::TaskContext&) {
    core::LocalCommunityHashMap table(keys, weights);
    table.insert_add(7, 1.0);
  });

  const check::Report report = check::report();
  ASSERT_FALSE(report.clean()) << "seeded race went unreported";
  const check::Violation* race =
      find_kind(report, check::ViolationKind::kWriteWriteRace);
  ASSERT_NE(race, nullptr) << report.to_string();
  EXPECT_TRUE(race->shared_arena) << race->to_string();
  // Attribution: kernel label and both task ids.
  EXPECT_NE(race->kernel.find("seeded/arena_race"), std::string::npos)
      << race->to_string();
  EXPECT_NE(race->task_a, race->task_b);
  EXPECT_TRUE((race->task_a == 0 && race->task_b == 1) ||
              (race->task_a == 1 && race->task_b == 0))
      << race->to_string();
  // The status surface mirrors the CLI/tooling contract.
  EXPECT_FALSE(report.to_status().ok());
}

// Double claim: both tasks clear the shared table and then claim the
// slot for community 7. The physical clear hides the first claim from
// the second task (it reads kNull), but the shadow record survives a
// foreign init — exactly one CAS winner is the paper's invariant.
TEST_F(CheckTest, DetectsSeededDoubleClaim) {
  simt::Device device({.worker_threads = 1});
  simt::SharedArena arena(4096);
  auto keys = arena.alloc<Community>(kCap);
  auto weights = arena.alloc<Weight>(kCap);

  check::KernelScope scope("seeded/double_claim");
  device.launch(2, 1, [&](simt::TaskContext&) {
    core::LocalCommunityHashMap table(keys, weights);
    table.clear();
    table.insert_add(7, 1.0);
  });

  const check::Report report = check::report();
  const check::Violation* claim =
      find_kind(report, check::ViolationKind::kDoubleClaim);
  ASSERT_NE(claim, nullptr) << report.to_string();
  EXPECT_TRUE(claim->shared_arena) << claim->to_string();
  EXPECT_NE(claim->kernel.find("seeded/double_claim"), std::string::npos);
  EXPECT_NE(claim->task_a, claim->task_b);
}

// Stale shared memory: a kernel reads table contents written by a
// PREVIOUS launch — on the GPU that shared memory would long be
// reclaimed; the read observes garbage.
TEST_F(CheckTest, DetectsStaleSharedArenaRead) {
  simt::Device device({.worker_threads = 1});
  simt::SharedArena arena(4096);
  auto keys = arena.alloc<Community>(kCap);
  auto weights = arena.alloc<Weight>(kCap);
  core::LocalCommunityHashMap table(keys, weights);

  check::KernelScope scope("seeded/stale_read");
  device.launch(1, [&](simt::TaskContext&) {
    table.clear();
    table.insert_add(7, 1.0);
  });
  EXPECT_EQ(check::violation_count(), 0u);  // first launch is fine
  device.launch(1, [&](simt::TaskContext&) {
    (void)table.key_at(3);  // contents belong to the previous launch
  });

  const check::Report report = check::report();
  const check::Violation* stale =
      find_kind(report, check::ViolationKind::kStaleSharedRead);
  ASSERT_NE(stale, nullptr) << report.to_string();
  EXPECT_TRUE(stale->shared_arena);
  EXPECT_NE(stale->kernel.find("seeded/stale_read"), std::string::npos);
}

// A task-local table raced by an atomic accumulator: task 0 treats the
// storage as private (plain claim + write), task 1 atomically adds to
// every slot. Mixing the two disciplines on one buffer in one launch is
// the plain/atomic race class.
TEST_F(CheckTest, DetectsPlainAtomicConflict) {
  simt::Device device({.worker_threads = 1});
  std::vector<Community> keys(kCap, kNull);
  std::vector<Weight> weights(kCap, 0);

  check::KernelScope scope("seeded/plain_atomic");
  device.launch(2, 1, [&](simt::TaskContext& ctx) {
    if (ctx.task() == 0) {
      core::LocalCommunityHashMap table({keys.data(), kCap},
                                        {weights.data(), kCap});
      table.insert_add(7, 1.0);
    } else {
      for (auto& w : weights) simt::atomic_add(w, 1.0);
    }
  });

  const check::Report report = check::report();
  const check::Violation* race =
      find_kind(report, check::ViolationKind::kWriteAtomicRace);
  ASSERT_NE(race, nullptr) << report.to_string();
  EXPECT_FALSE(race->shared_arena);  // host vectors, i.e. global memory
  EXPECT_NE(race->kernel.find("seeded/plain_atomic"), std::string::npos);
}

// Tasks must not synchronize inside a launch; launching from a task is
// the canonical way to try.
TEST_F(CheckTest, DetectsNestedLaunch) {
  simt::Device device({.worker_threads = 1});
  check::KernelScope scope("seeded/nested");
  device.launch(1, [&](simt::TaskContext&) {
    device.launch(1, [](simt::TaskContext&) {});
  });
  EXPECT_TRUE(has_kind(check::report(), check::ViolationKind::kNestedLaunch))
      << check::report().to_string();
}

// Two threads driving one core::Workspace concurrently — the svc
// contract breach the WorkspaceGuard exists for.
TEST_F(CheckTest, DetectsAliasedWorkspace) {
  core::Workspace ws;
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;

  std::thread holder([&] {
    check::WorkspaceGuard guard(&ws);
    std::unique_lock lock(mu);
    stage = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return stage == 2; });
  });
  std::thread intruder([&] {
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return stage == 1; });
    }
    check::WorkspaceGuard guard(&ws);  // overlaps the holder's guard
    std::lock_guard lock(mu);
    stage = 2;
    cv.notify_all();
  });
  holder.join();
  intruder.join();

  EXPECT_TRUE(
      has_kind(check::report(), check::ViolationKind::kWorkspaceAliased))
      << check::report().to_string();
}

// Re-entrant acquisition by the SAME thread is the nested-phase case
// (modularity evaluation inside optimize_phase) and must stay legal.
TEST_F(CheckTest, NestedWorkspaceGuardOnOneThreadIsClean) {
  core::Workspace ws;
  {
    check::WorkspaceGuard outer(&ws);
    check::WorkspaceGuard inner(&ws);
  }
  EXPECT_EQ(check::violation_count(), 0u);
  {
    // And the workspace is released: a later thread may take it.
    std::thread other([&] { check::WorkspaceGuard guard(&ws); });
    other.join();
  }
  EXPECT_EQ(check::violation_count(), 0u);
}

TEST_F(CheckTest, ContractFailureIsReported) {
  check::contract(true, "holds");
  EXPECT_EQ(check::violation_count(), 0u);
  check::contract(false, "seeded contract breach");
  const check::Report report = check::report();
  const check::Violation* c =
      find_kind(report, check::ViolationKind::kContract);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c->detail.find("seeded contract breach"), std::string::npos);
}

// Distinct tasks writing DISTINCT addresses, and one task re-writing
// its own address, must stay silent — the checker's value depends on
// not crying wolf.
TEST_F(CheckTest, DisjointAndSameTaskWritesAreClean) {
  simt::Device device({.worker_threads = 1});
  std::vector<Community> keys(kCap, kNull);
  std::vector<Weight> weights(kCap, 0);
  device.launch(2, 1, [&](simt::TaskContext& ctx) {
    core::LocalCommunityHashMap table({keys.data(), kCap},
                                      {weights.data(), kCap});
    // Per-task community id -> different slots; repeated adds exercise
    // same-task rewrites.
    const auto c = static_cast<Community>(1 + ctx.task());
    table.insert_add(c, 1.0);
    table.insert_add(c, 1.0);
  });
  EXPECT_EQ(check::violation_count(), 0u) << check::report().to_string();
}

// --- Clean runs under full instrumentation --------------------------

// The real pipeline end to end: all modopt/aggregate kernels, every
// bucket, multiple levels. Zero violations is the acceptance bar.
TEST_F(CheckTest, CoreLouvainRunsClean) {
  const auto g = gen::rmat({.scale = 10, .edge_factor = 8}, 7);
  const core::Result result = core::louvain(g);
  EXPECT_GT(result.modularity, 0.0);
  EXPECT_EQ(check::violation_count(), 0u) << check::report().to_string();
}

// Multi-job svc stress: concurrent jobs on pooled devices, workspaces
// owned per worker. Any cross-job aliasing or launch-epoch confusion
// would surface here.
TEST_F(CheckTest, SvcMultiJobStressRunsClean) {
  {
    svc::ServiceConfig cfg;
    cfg.devices = 2;
    cfg.aux_workers = 1;
    cfg.options.threads = 2;
    svc::Service service(cfg);
    std::vector<svc::JobId> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(
          service.submit(gen::rmat({.scale = 10, .edge_factor = 8}, i)));
    }
    for (svc::JobId id : ids) {
      const svc::JobResult r = service.wait(id);
      EXPECT_EQ(r.status, svc::JobStatus::Completed);
    }
  }
  EXPECT_EQ(check::violation_count(), 0u) << check::report().to_string();
}

}  // namespace
}  // namespace glouvain
