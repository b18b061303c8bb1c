// Service-layer tests: fingerprinting, the LRU result cache, the
// bounded priority queue, and the Service itself — concurrent
// submission from many threads, scheduling order, cancellation,
// deadline expiry, cache-hit determinism, backpressure rejection, and
// shutdown semantics. This suite carries the `stress` ctest label and
// must stay clean under -fsanitize=thread (the `tsan` CMake preset).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gen/cliques.hpp"
#include "gen/er.hpp"
#include "gen/sbm.hpp"
#include "seq/louvain.hpp"
#include "shard/plan_cache.hpp"
#include "stream/apply.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "svc/queue.hpp"
#include "svc/service.hpp"

namespace glouvain {
namespace {

using namespace std::chrono_literals;

graph::Csr small_graph(std::uint64_t variant) {
  // Ring of cliques: cheap, deterministic, unambiguous communities.
  return gen::ring_of_cliques(8 + static_cast<graph::VertexId>(variant % 4), 5);
}

graph::Csr device_sized_graph(std::uint64_t seed) {
  // n + m above the default seq_cost_limit, so Auto routes to Core.
  return gen::erdos_renyi(3000, 12000, seed);
}

// ---------------------------------------------------------------- fingerprint

TEST(Fingerprint, StableAcrossCopies) {
  const auto g = small_graph(0);
  const graph::Csr copy = g;
  EXPECT_EQ(graph::fingerprint128(g), graph::fingerprint128(copy));
}

TEST(Fingerprint, DistinguishesGraphs) {
  const auto a = graph::fingerprint128(small_graph(0));
  const auto b = graph::fingerprint128(small_graph(1));
  const auto c = graph::fingerprint128(device_sized_graph(1));
  const auto d = graph::fingerprint128(device_sized_graph(2));
  EXPECT_NE(a, b);
  EXPECT_NE(c, d);
  EXPECT_NE(a, c);
}

// --------------------------------------------------------------------- queue

TEST(BoundedPriorityQueue, PriorityThenFifoOrder) {
  svc::BoundedPriorityQueue<int> q(8);
  ASSERT_TRUE(q.push(1, /*priority=*/0, 10));
  ASSERT_TRUE(q.push(2, /*priority=*/5, 20));
  ASSERT_TRUE(q.push(3, /*priority=*/5, 30));
  ASSERT_TRUE(q.push(4, /*priority=*/-1, 40));
  EXPECT_EQ(q.pop().value(), 20);  // highest priority first
  EXPECT_EQ(q.pop().value(), 30);  // FIFO within a priority
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 40);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedPriorityQueue, CapacityAndErase) {
  svc::BoundedPriorityQueue<int> q(2);
  EXPECT_TRUE(q.push(1, 0, 10));
  EXPECT_TRUE(q.push(2, 0, 20));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3, 9, 30));  // bounded: rejected even at high priority
  EXPECT_EQ(q.erase(1).value(), 10);
  EXPECT_FALSE(q.erase(1).has_value());  // already gone
  EXPECT_FALSE(q.contains(1));
  EXPECT_TRUE(q.push(3, 9, 30));
  EXPECT_EQ(q.pop().value(), 30);
}

TEST(BoundedPriorityQueue, FilteredPop) {
  svc::BoundedPriorityQueue<int> q(8);
  q.push(1, 9, 11);  // best, but odd
  q.push(2, 5, 22);
  q.push(3, 1, 33);
  const auto even = [](const int& v) { return v % 2 == 0; };
  EXPECT_EQ(q.pop_if(even).value(), 22);
  EXPECT_EQ(q.pop().value(), 11);
}

// --------------------------------------------------------------------- cache

TEST(ResultCache, LruEviction) {
  svc::ResultCache cache(2);
  const auto key = [](std::uint64_t i) {
    return graph::Fingerprint128{i, ~i};
  };
  const auto value = [] { return std::make_shared<core::Result>(); };

  EXPECT_EQ(cache.get(key(1)), nullptr);
  cache.put(key(1), value());
  cache.put(key(2), value());
  EXPECT_NE(cache.get(key(1)), nullptr);  // refreshes 1
  cache.put(key(3), value());             // evicts 2 (least recent)
  EXPECT_EQ(cache.get(key(2)), nullptr);
  EXPECT_NE(cache.get(key(1)), nullptr);
  EXPECT_NE(cache.get(key(3)), nullptr);

  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  svc::ResultCache cache(0);
  cache.put(graph::Fingerprint128{1, 2}, std::make_shared<core::Result>());
  EXPECT_EQ(cache.get(graph::Fingerprint128{1, 2}), nullptr);
}

// ------------------------------------------------------------------- service

svc::ServiceConfig quiet_config() {
  svc::ServiceConfig cfg;
  cfg.devices = 2;
  cfg.options.threads = 1;  // single-worker devices: deterministic core runs
  cfg.aux_workers = 1;
  cfg.queue_capacity = 256;
  cfg.cache_capacity = 16;
  return cfg;
}

TEST(Service, AutoRoutingDegradesTinyGraphs) {
  svc::Service service(quiet_config());
  const svc::JobId tiny = service.submit(small_graph(0));
  const svc::JobId big = service.submit(device_sized_graph(1));
  const svc::JobResult rt = service.wait(tiny);
  const svc::JobResult rb = service.wait(big);
  ASSERT_EQ(rt.status, svc::JobStatus::Completed);
  ASSERT_EQ(rb.status, svc::JobStatus::Completed);
  EXPECT_EQ(rt.backend, "seq");
  EXPECT_EQ(rb.backend, "core");
  const svc::Stats st = service.stats();
  EXPECT_EQ(st.ran_sequential, 1u);
  EXPECT_EQ(st.ran_on_device, 1u);
  // The device-run result carries real DeviceStats; the degraded one
  // never touched a device.
  EXPECT_EQ(rb.result->device.workers, 1u);
  EXPECT_EQ(rt.result->device.workers, 0u);
}

TEST(Service, ConcurrentSubmissionManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 4;  // 32 jobs total
  svc::Service service(quiet_config());

  std::vector<graph::Csr> graphs;
  for (std::uint64_t v = 0; v < 4; ++v) graphs.push_back(small_graph(v));
  graphs.push_back(device_sized_graph(9));

  std::vector<std::vector<std::pair<std::size_t, svc::JobId>>> submitted(
      kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const std::size_t which =
            static_cast<std::size_t>(t + j) % graphs.size();
        svc::JobOptions jo;
        jo.priority = j;
        jo.use_cache = (t + j) % 2 == 0;  // exercise both paths
        submitted[t].emplace_back(which,
                                  service.submit(graphs[which], jo));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every job completes, and jobs on the same graph agree exactly
  // (single-worker devices are deterministic, cached or not).
  std::vector<double> modularity(graphs.size(), -2.0);
  int completed = 0;
  for (const auto& per_thread : submitted) {
    for (const auto& [which, id] : per_thread) {
      const svc::JobResult r = service.wait(id);
      ASSERT_EQ(r.status, svc::JobStatus::Completed) << r.error;
      ASSERT_NE(r.result, nullptr);
      if (modularity[which] < -1.5) {
        modularity[which] = r.result->modularity;
      } else {
        EXPECT_EQ(r.result->modularity, modularity[which]);
      }
      ++completed;
    }
  }
  EXPECT_EQ(completed, kThreads * kJobsPerThread);

  const svc::Stats st = service.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(completed));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(completed));
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.running, 0u);
}

TEST(Service, PriorityOrderOnSingleDevice) {
  svc::ServiceConfig cfg = quiet_config();
  cfg.devices = 1;
  cfg.aux_workers = 0;
  cfg.start_paused = true;
  svc::Service service(cfg);

  const svc::JobId low = service.submit(small_graph(0), {.priority = 0});
  const svc::JobId high = service.submit(small_graph(1), {.priority = 10});
  const svc::JobId mid = service.submit(small_graph(2), {.priority = 5});
  service.resume();

  const auto r_low = service.wait(low);
  const auto r_high = service.wait(high);
  const auto r_mid = service.wait(mid);
  ASSERT_EQ(r_low.status, svc::JobStatus::Completed);
  EXPECT_LT(r_high.start_sequence, r_mid.start_sequence);
  EXPECT_LT(r_mid.start_sequence, r_low.start_sequence);
}

TEST(Service, CancelQueuedJob) {
  svc::ServiceConfig cfg = quiet_config();
  cfg.devices = 1;
  cfg.aux_workers = 0;
  cfg.start_paused = true;
  svc::Service service(cfg);

  const svc::JobId keep = service.submit(small_graph(0));
  const svc::JobId victim = service.submit(small_graph(1));
  EXPECT_EQ(service.poll(victim), svc::JobStatus::Queued);
  EXPECT_TRUE(service.cancel(victim));
  EXPECT_EQ(service.poll(victim), svc::JobStatus::Cancelled);
  EXPECT_FALSE(service.cancel(victim));       // already terminal
  EXPECT_FALSE(service.cancel(9999));         // unknown id

  service.resume();
  EXPECT_EQ(service.wait(victim).status, svc::JobStatus::Cancelled);
  const auto kept = service.wait(keep);
  EXPECT_EQ(kept.status, svc::JobStatus::Completed);
  EXPECT_FALSE(service.cancel(keep));  // completed jobs cannot cancel

  const svc::Stats st = service.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(Service, DeadlineExpiresFromWaiter) {
  svc::ServiceConfig cfg = quiet_config();
  cfg.start_paused = true;  // workers never pick it up
  svc::Service service(cfg);

  const svc::JobId id =
      service.submit(small_graph(0), {.deadline = 30ms});
  const svc::JobResult r = service.wait(id);  // waiter fires the deadline
  EXPECT_EQ(r.status, svc::JobStatus::Expired);
  EXPECT_GE(r.total_seconds, 0.025);
  EXPECT_EQ(service.stats().expired, 1u);
  service.resume();
}

TEST(Service, DeadlineExpiresAtWorkerPop) {
  svc::ServiceConfig cfg = quiet_config();
  cfg.start_paused = true;
  svc::Service service(cfg);

  const svc::JobId id =
      service.submit(small_graph(0), {.deadline = 10ms});
  std::this_thread::sleep_for(30ms);  // deadline passes while paused
  service.resume();
  // The worker, not a waiter, must discover and expire it.
  for (int i = 0; i < 200 && !svc::is_terminal(service.poll(id)); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(service.poll(id), svc::JobStatus::Expired);
  EXPECT_EQ(service.wait(id).status, svc::JobStatus::Expired);
}

TEST(Service, DeadlineMetWhenJobRuns) {
  svc::Service service(quiet_config());
  const svc::JobId id =
      service.submit(small_graph(0), {.deadline = 10min});
  EXPECT_EQ(service.wait(id).status, svc::JobStatus::Completed);
}

TEST(Service, BackpressureRejectsWhenQueueFull) {
  svc::ServiceConfig cfg = quiet_config();
  cfg.devices = 1;
  cfg.aux_workers = 0;
  cfg.queue_capacity = 4;
  cfg.cache_capacity = 0;  // identical graphs must not short-circuit
  cfg.start_paused = true;
  svc::Service service(cfg);

  std::vector<svc::JobId> accepted;
  for (int i = 0; i < 4; ++i) accepted.push_back(service.submit(small_graph(0)));
  const svc::JobId overflow = service.submit(small_graph(0));

  for (const svc::JobId id : accepted) {
    EXPECT_EQ(service.poll(id), svc::JobStatus::Queued);
  }
  EXPECT_EQ(service.poll(overflow), svc::JobStatus::Rejected);
  const svc::JobResult r = service.wait(overflow);  // terminal: no block
  EXPECT_EQ(r.status, svc::JobStatus::Rejected);

  service.resume();
  for (const svc::JobId id : accepted) {
    EXPECT_EQ(service.wait(id).status, svc::JobStatus::Completed);
  }
  const svc::Stats st = service.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.accepted, 4u);
}

TEST(Service, CacheHitReturnsIdenticalCommunities) {
  svc::Service service(quiet_config());
  const auto g = device_sized_graph(5);

  const svc::JobResult first = service.wait(service.submit(g));
  ASSERT_EQ(first.status, svc::JobStatus::Completed);
  EXPECT_FALSE(first.cache_hit);

  const svc::JobResult second = service.wait(service.submit(g));
  ASSERT_EQ(second.status, svc::JobStatus::Completed);
  EXPECT_TRUE(second.cache_hit);
  // Same fingerprint -> the same immutable result object.
  EXPECT_EQ(second.result, first.result);
  EXPECT_EQ(second.result->community, first.result->community);
  EXPECT_EQ(second.run_seconds, 0.0);

  // A fresh service recomputes and agrees exactly (single-worker
  // devices are deterministic), so cached answers are not stale.
  svc::Service fresh(quiet_config());
  const svc::JobResult recomputed = fresh.wait(fresh.submit(g));
  ASSERT_EQ(recomputed.status, svc::JobStatus::Completed);
  EXPECT_EQ(recomputed.result->community, first.result->community);

  const svc::Stats st = service.stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
}

TEST(Service, CacheOptOutRecomputes) {
  svc::Service service(quiet_config());
  const auto g = small_graph(0);
  const svc::JobResult first = service.wait(service.submit(g));
  const svc::JobResult second =
      service.wait(service.submit(g, {.use_cache = false}));
  ASSERT_EQ(second.status, svc::JobStatus::Completed);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_NE(second.result, first.result);  // distinct run, same answer
  EXPECT_EQ(second.result->community, first.result->community);
}

TEST(Service, ExplicitBackendSelection) {
  svc::Service service(quiet_config());
  // Force the tiny graph onto a device and the comparator backends.
  const auto g = small_graph(0);
  const svc::JobResult on_device =
      service.wait(service.submit(g, {.backend = "core",
                                      .use_cache = false}));
  const svc::JobResult on_plm =
      service.wait(service.submit(g, {.backend = "plm",
                                      .use_cache = false}));
  ASSERT_EQ(on_device.status, svc::JobStatus::Completed);
  ASSERT_EQ(on_plm.status, svc::JobStatus::Completed);
  EXPECT_EQ(on_device.backend, "core");
  EXPECT_EQ(on_plm.backend, "plm");
  // Ring of cliques has an unambiguous optimum: all engines agree.
  EXPECT_NEAR(on_device.result->modularity, on_plm.result->modularity, 1e-9);
}

TEST(Service, RoutingCountersCoverEveryBackend) {
  svc::Service service(quiet_config());
  const auto g = small_graph(0);
  for (const std::string b : {"core", "seq", "plm", "shard"}) {
    SCOPED_TRACE(b);
    const svc::JobResult r =
        service.wait(service.submit(g, {.backend = b, .use_cache = false}));
    ASSERT_EQ(r.status, svc::JobStatus::Completed) << r.error;
    EXPECT_EQ(r.backend, b);
  }
  const svc::Stats st = service.stats();
  EXPECT_EQ(st.ran_on_device, 1u);
  EXPECT_EQ(st.ran_sequential, 1u);
  EXPECT_EQ(st.ran_sharded, 1u);
  EXPECT_EQ(st.ran_other, 1u);  // plm
  EXPECT_EQ(st.completed, st.ran_on_device + st.ran_sequential +
                              st.ran_sharded + st.ran_other);
}

TEST(Service, ShutdownWithoutDrainCancelsBacklog) {
  svc::ServiceConfig cfg = quiet_config();
  cfg.start_paused = true;
  svc::Service service(cfg);
  const svc::JobId a = service.submit(small_graph(0));
  const svc::JobId b = service.submit(small_graph(1));
  service.shutdown(/*drain=*/false);
  EXPECT_EQ(service.poll(a), svc::JobStatus::Cancelled);
  EXPECT_EQ(service.poll(b), svc::JobStatus::Cancelled);
  // Submissions after shutdown are rejected, not silently dropped.
  const svc::JobId late = service.submit(small_graph(2));
  EXPECT_EQ(service.poll(late), svc::JobStatus::Rejected);
  EXPECT_EQ(service.stats().cancelled, 2u);
}

TEST(Service, WaitOnUnknownJobDoesNotBlock) {
  svc::Service service(quiet_config());
  EXPECT_EQ(service.wait(424242).status, svc::JobStatus::Cancelled);
  EXPECT_EQ(service.poll(424242), svc::JobStatus::Cancelled);
}

// A denser end-to-end stress: submissions racing with cancellations
// and polls from many threads, mixed deadlines, shared cache. The
// invariant checked is conservation: every accepted job reaches
// exactly one terminal state and the counters add up.
TEST(Service, StressMixedTraffic) {
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 6;
  svc::ServiceConfig cfg = quiet_config();
  cfg.queue_capacity = 16;  // small enough that rejections can happen
  svc::Service service(cfg);

  std::vector<graph::Csr> graphs;
  for (std::uint64_t v = 0; v < 3; ++v) graphs.push_back(small_graph(v));

  std::atomic<int> terminal{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        svc::JobOptions jo;
        jo.priority = (t * 7 + j) % 5;
        if (j % 3 == 1) jo.deadline = 50ms;
        const std::size_t which = static_cast<std::size_t>(t + j) % graphs.size();
        const svc::JobId id = service.submit(graphs[which], jo);
        if (j % 4 == 3) service.cancel(id);  // may or may not win the race
        const svc::JobResult r = service.wait(id);
        EXPECT_TRUE(svc::is_terminal(r.status));
        if (r.status == svc::JobStatus::Completed) {
          EXPECT_NE(r.result, nullptr);
        }
        ++terminal;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(terminal.load(), kThreads * kJobsPerThread);

  const svc::Stats st = service.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(st.submitted, st.accepted + st.rejected);
  EXPECT_EQ(st.accepted,
            st.completed + st.cancelled + st.expired + st.failed);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.running, 0u);
}

TEST(Fingerprint, BackendsAndEpochsDoNotCollide) {
  // Regression: the cache used to key on the graph hash alone, so the
  // SAME graph run by two backends returned whichever result landed
  // first. job_key folds backend, options, session and epoch in.
  const auto g = graph::fingerprint128(small_graph(0));
  const detect::Options options;
  const auto core = svc::job_key(g, "core", options);
  const auto seq = svc::job_key(g, "seq", options);
  EXPECT_NE(core, seq);

  detect::Options coarse;
  coarse.thresholds.t_final = 1e-2;
  EXPECT_NE(svc::job_key(g, "core", coarse), core);

  EXPECT_NE(svc::job_key(g, "core", options, 1, 1),
            svc::job_key(g, "core", options, 1, 2));  // epochs differ
  EXPECT_NE(svc::job_key(g, "core", options, 1, 1),
            svc::job_key(g, "core", options, 2, 1));  // sessions differ
  EXPECT_EQ(svc::job_key(g, "core", options, 1, 1),
            svc::job_key(g, "core", options, 1, 1));
}

TEST(Service, SameGraphTwoBackendsTwoResults) {
  svc::ServiceConfig cfg;
  cfg.devices = 1;
  cfg.seq_cost_limit = 0;  // no degradation: backends run as asked
  svc::Service service(cfg);
  const auto g = small_graph(2);
  const svc::JobId a = service.submit(g, {.backend = "core"});
  const svc::JobId b = service.submit(g, {.backend = "seq"});
  const svc::JobResult ra = service.wait(a);
  const svc::JobResult rb = service.wait(b);
  ASSERT_EQ(ra.status, svc::JobStatus::Completed);
  ASSERT_EQ(rb.status, svc::JobStatus::Completed);
  // Neither may be served from the other's cache entry.
  EXPECT_FALSE(ra.cache_hit);
  EXPECT_FALSE(rb.cache_hit);
  EXPECT_EQ(ra.backend, "core");
  EXPECT_EQ(rb.backend, "seq");
}

TEST(Service, WarmStartedJobBypassesResultCache) {
  // The cache key never sees a warm start, so a warm-started job must
  // neither fill the cache (a later cold submission of the graph would
  // get the warm answer) nor read it (it would get the cold answer).
  gen::SbmParams p;
  p.num_vertices = 20000;
  p.num_communities = 200;
  p.intra_degree = 12.0;
  p.inter_degree = 2.0;
  p.seed = 7;
  const graph::Csr g = gen::planted_partition(p).graph;
  svc::ServiceConfig cfg;
  cfg.devices = 1;
  cfg.options.threads = 2;
  svc::Service service(cfg);

  // Two halves by vertex parity, and only vertex 0 may move: the run
  // keeps the seed's near-zero modularity.
  auto warm = std::make_shared<detect::WarmStart>();
  warm->seed.resize(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) warm->seed[v] = v % 2;
  warm->frontier = {0};
  auto warm_options = std::make_shared<detect::Options>();
  warm_options->warm_start = warm;
  svc::JobOptions warm_job;
  warm_job.options = warm_options;

  const svc::JobResult first = service.wait(service.submit(g, warm_job));
  ASSERT_EQ(first.status, svc::JobStatus::Completed) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_LT(first.result->modularity, 0.1);

  const svc::JobResult cold = service.wait(service.submit(g));
  ASSERT_EQ(cold.status, svc::JobStatus::Completed) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_NE(cold.result, first.result);
  EXPECT_GT(cold.result->modularity, 0.8);

  const svc::JobResult again = service.wait(service.submit(g, warm_job));
  ASSERT_EQ(again.status, svc::JobStatus::Completed) << again.error;
  EXPECT_FALSE(again.cache_hit);
  EXPECT_LT(again.result->modularity, 0.1);

  const svc::Stats st = service.stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_entries, 1u);  // the cold result alone
}

TEST(Service, PinsDeviceShapeAcrossJobOverrides) {
  // options.threads is the service's one thread knob: a per-job
  // override asking for another count (0 = hardware concurrency) still
  // runs on the pooled 2-worker device.
  svc::ServiceConfig cfg;
  cfg.devices = 1;
  cfg.options.threads = 2;
  svc::Service service(cfg);
  const auto g = device_sized_graph(3);

  svc::JobOptions plain;
  plain.use_cache = false;
  svc::JobOptions overridden = plain;
  auto options = std::make_shared<detect::Options>();
  options->threads = 0;
  overridden.options = options;

  for (const svc::JobOptions& jo : {plain, overridden}) {
    const svc::JobResult r = service.wait(service.submit(g, jo));
    ASSERT_EQ(r.status, svc::JobStatus::Completed) << r.error;
    EXPECT_EQ(r.backend, "core");
    EXPECT_EQ(r.result->device.workers, 2u);
  }
  EXPECT_EQ(service.stats().device_threads, 2u);

  // So does a session whose own options leave threads at 0.
  auto sid = service.open_session(device_sized_graph(4));
  ASSERT_TRUE(sid.ok()) << sid.status().to_string();
  stream::Delta delta;
  delta.insertions.push_back({0, 1, 1.0});
  auto jid = service.submit_delta(*sid, delta);
  ASSERT_TRUE(jid.ok()) << jid.status().to_string();
  const svc::JobResult r = service.wait(*jid);
  ASSERT_EQ(r.status, svc::JobStatus::Completed) << r.error;
  EXPECT_EQ(r.result->device.workers, 2u);
  EXPECT_TRUE(service.close_session(*sid).ok());
}

TEST(Service, UnregisteredBackendFailsWithRegistryMessage) {
  svc::Service service(quiet_config());
  svc::JobOptions jo;
  jo.backend = "no-such-backend";
  const svc::JobResult r = service.wait(service.submit(small_graph(0), jo));
  EXPECT_EQ(r.status, svc::JobStatus::Failed);
  EXPECT_EQ(r.backend, "no-such-backend");
  EXPECT_EQ(r.error, detect::make("no-such-backend").status().to_string());
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(Service, SessionOnRegisteredBackendReportsItsName) {
  // A backend added to the registry keeps its registry name in the
  // session's job results and counts as "other" in the routing stats.
  detect::register_backend("svc-session-seq", [](const detect::Extensions&) {
    return std::move(detect::make("seq")).value();
  });
  svc::ServiceConfig cfg;
  cfg.devices = 1;
  svc::Service service(cfg);
  stream::SessionOptions so;
  so.backend = "svc-session-seq";
  auto sid = service.open_session(small_graph(0), so);
  ASSERT_TRUE(sid.ok()) << sid.status().to_string();

  stream::Delta delta;
  delta.insertions.push_back({0, 7, 1.0});
  auto jid = service.submit_delta(*sid, delta);
  ASSERT_TRUE(jid.ok()) << jid.status().to_string();
  const svc::JobResult r = service.wait(*jid);
  ASSERT_EQ(r.status, svc::JobStatus::Completed) << r.error;
  EXPECT_EQ(r.backend, "svc-session-seq");

  const svc::Stats st = service.stats();
  EXPECT_EQ(st.ran_other, 1u);
  EXPECT_EQ(st.ran_on_device + st.ran_sequential + st.ran_sharded, 0u);
  EXPECT_TRUE(service.close_session(*sid).ok());
}

TEST(Service, SessionDeltaLifecycle) {
  svc::ServiceConfig cfg;
  cfg.devices = 2;
  svc::Service service(cfg);

  auto g = small_graph(0);
  const graph::VertexId n = g.num_vertices();
  auto sid = service.open_session(std::move(g));
  ASSERT_TRUE(sid.ok()) << sid.status().to_string();

  auto info = service.session_info(*sid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 0u);
  EXPECT_EQ(info->num_vertices, n);
  EXPECT_GT(info->modularity, 0.0);

  // A few deltas, in order; every epoch must land gaplessly.
  std::vector<svc::JobId> jobs;
  for (int i = 0; i < 3; ++i) {
    stream::Delta delta;
    delta.insertions.push_back(
        {static_cast<graph::VertexId>(i), static_cast<graph::VertexId>(n / 2 + i), 1.0});
    auto jid = service.submit_delta(*sid, delta);
    ASSERT_TRUE(jid.ok()) << jid.status().to_string();
    EXPECT_FALSE(service.cancel(*jid));  // delta jobs are not cancellable
    jobs.push_back(*jid);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const svc::JobResult r = service.wait(jobs[i]);
    ASSERT_EQ(r.status, svc::JobStatus::Completed) << r.error;
    ASSERT_TRUE(r.result);
    EXPECT_EQ(r.result->community.size(), n);
  }

  info = service.session_info(*sid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 3u);
  EXPECT_EQ(info->outstanding, 0u);

  const svc::Stats st = service.stats();
  EXPECT_EQ(st.sessions_opened, 1u);
  EXPECT_EQ(st.deltas_applied, 3u);
  EXPECT_EQ(st.sessions_open, 1u);

  EXPECT_TRUE(service.close_session(*sid).ok());
  EXPECT_EQ(service.close_session(*sid).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(service.session_info(*sid).status().code(),
            util::StatusCode::kNotFound);
}

TEST(Service, CloseSessionRefusesWithOutstandingDeltas) {
  svc::ServiceConfig cfg;
  cfg.devices = 1;
  cfg.start_paused = true;  // keep the delta queued
  svc::Service service(cfg);
  auto sid = service.open_session(small_graph(1));
  ASSERT_TRUE(sid.ok());
  auto jid = service.submit_delta(*sid, stream::Delta{});
  ASSERT_TRUE(jid.ok());
  EXPECT_EQ(service.close_session(*sid).code(),
            util::StatusCode::kFailedPrecondition);
  service.resume();
  EXPECT_EQ(service.wait(*jid).status, svc::JobStatus::Completed);
  EXPECT_TRUE(service.close_session(*sid).ok());
}

TEST(Service, SubmitDeltaToUnknownSession) {
  svc::ServiceConfig cfg;
  cfg.devices = 1;
  svc::Service service(cfg);
  auto jid = service.submit_delta(12345, stream::Delta{});
  EXPECT_EQ(jid.status().code(), util::StatusCode::kNotFound);
}

TEST(Service, ConcurrentSessionsOnDistinctWorkers) {
  svc::ServiceConfig cfg;
  cfg.devices = 2;
  svc::Service service(cfg);

  auto s1 = service.open_session(small_graph(0));
  auto s2 = service.open_session(small_graph(3));
  ASSERT_TRUE(s1.ok() && s2.ok());
  // Round-robin pinning spreads sessions across the device pool.
  EXPECT_NE(service.session_info(*s1)->pinned_worker,
            service.session_info(*s2)->pinned_worker);

  std::vector<svc::JobId> jobs;
  for (int i = 0; i < 4; ++i) {
    stream::Delta d;
    d.insertions.push_back({static_cast<graph::VertexId>(i),
                            static_cast<graph::VertexId>(i + 7), 1.0});
    auto j1 = service.submit_delta(*s1, d);
    auto j2 = service.submit_delta(*s2, d);
    ASSERT_TRUE(j1.ok() && j2.ok());
    jobs.push_back(*j1);
    jobs.push_back(*j2);
  }
  for (const svc::JobId id : jobs) {
    EXPECT_EQ(service.wait(id).status, svc::JobStatus::Completed);
  }
  EXPECT_EQ(service.session_info(*s1)->epoch, 4u);
  EXPECT_EQ(service.session_info(*s2)->epoch, 4u);
  EXPECT_TRUE(service.close_session(*s1).ok());
  EXPECT_TRUE(service.close_session(*s2).ok());
}

// ------------------------------------------------------ shard integration

TEST(Service, PartitionSeedKeyedIntoResultCache) {
  // Two jobs differing ONLY in the partition seed must never alias a
  // cache entry — even when the graph is small enough that the shard
  // backend collapses to one shard and both answers coincide (aliasing
  // would be wrong there too, and silently so).
  svc::Service service(quiet_config());
  const auto g = device_sized_graph(9);
  auto opts_a = std::make_shared<detect::Options>();
  opts_a->shards = 2;
  opts_a->partition_seed = 1;
  auto opts_b = std::make_shared<detect::Options>(*opts_a);
  opts_b->partition_seed = 2;

  const svc::JobResult a = service.wait(service.submit(
      g, {.backend = "shard", .options = opts_a}));
  const svc::JobResult b = service.wait(service.submit(
      g, {.backend = "shard", .options = opts_b}));
  ASSERT_EQ(a.status, svc::JobStatus::Completed) << a.error;
  ASSERT_EQ(b.status, svc::JobStatus::Completed) << b.error;
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);  // the seed is in the job fingerprint
  EXPECT_NE(a.result, b.result);

  // The same seed resubmitted IS a hit, on the same immutable object.
  auto opts_c = std::make_shared<detect::Options>(*opts_a);
  const svc::JobResult c = service.wait(service.submit(
      g, {.backend = "shard", .options = opts_c}));
  ASSERT_EQ(c.status, svc::JobStatus::Completed) << c.error;
  EXPECT_TRUE(c.cache_hit);
  EXPECT_EQ(c.result, a.result);
}

TEST(Service, PlanCacheReusedAcrossJobsAndInvalidatedByDeltas) {
  // Big enough that shards_for() keeps k = 2 at level 0 (the plan
  // cache is only consulted on genuinely sharded levels).
  shard::plan_cache().clear();
  svc::Service service(quiet_config());
  const auto g = gen::erdos_renyi(20000, 60000, 3);
  auto opts = std::make_shared<detect::Options>();
  opts->shards = 2;
  const svc::JobOptions job{.backend = "shard",
                            .use_cache = false,  // force a real recompute
                            .options = opts};

  ASSERT_EQ(service.wait(service.submit(g, job)).status,
            svc::JobStatus::Completed);
  const shard::PlanCache::Stats first = shard::plan_cache().stats();
  EXPECT_GT(first.misses, 0u);
  ASSERT_EQ(service.wait(service.submit(g, job)).status,
            svc::JobStatus::Completed);
  const shard::PlanCache::Stats second = shard::plan_cache().stats();
  EXPECT_GT(second.hits, 0u);  // the repeat reused the cached plan(s)

  // A stream delta changes the graph, hence its fingerprint, hence the
  // plan key: the mutated graph must MISS (a stale plan for the old
  // content would partition vertices that no longer match).
  stream::Delta delta;
  delta.insertions.push_back({1, 4242, 1.0});
  const graph::Csr mutated = stream::apply_delta(g, delta).graph;
  ASSERT_EQ(service.wait(service.submit(mutated, job)).status,
            svc::JobStatus::Completed);
  const shard::PlanCache::Stats third = shard::plan_cache().stats();
  EXPECT_GT(third.misses, second.misses);
}

// Many submitters racing on one process-wide plan cache: the stress
// invariant is conservation (every get is a hit or a miss) and that a
// cached plan is always a complete plan for its key. Runs under the
// `stress` label / tsan preset like the rest of this suite.
TEST(Service, PlanCacheConcurrentStress) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  shard::PlanCache cache(4);  // smaller than the key set: evictions churn

  std::vector<graph::Csr> graphs;
  std::vector<shard::PlanKey> keys;
  std::vector<std::shared_ptr<const shard::Plan>> plans;
  shard::PartitionConfig pc;
  pc.num_shards = 2;
  for (graph::VertexId i = 0; i < 8; ++i) {
    graphs.push_back(gen::ring_of_cliques(4 + i, 5));
    keys.push_back(shard::plan_key(graphs.back(), pc));
    plans.push_back(
        std::make_shared<shard::Plan>(shard::make_plan(graphs.back(), pc)));
  }

  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t j = static_cast<std::size_t>(t + i) % keys.size();
        auto plan = cache.get(keys[j]);
        gets.fetch_add(1, std::memory_order_relaxed);
        if (!plan) {
          cache.put(keys[j], plans[j]);
        } else {
          // A hit must be the complete plan for this key's graph.
          EXPECT_EQ(plan->num_shards, 2u);
          EXPECT_EQ(plan->owner.size(), graphs[j].num_vertices());
        }
        if (i % 64 == 0) (void)cache.stats();
      }
    });
  }
  for (auto& th : threads) th.join();

  const shard::PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, gets.load());
  EXPECT_LE(st.entries, 4u);
  EXPECT_GT(st.evictions, 0u);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const auto plan = cache.get(keys[j]);
    if (plan) {
      EXPECT_EQ(plan->owner.size(), graphs[j].num_vertices());
    }
  }
}

}  // namespace
}  // namespace glouvain
