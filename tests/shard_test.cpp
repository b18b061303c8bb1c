// Tests for the sharded multi-device backend: the partitioner's
// invariants (every edge owned by exactly one shard, hub replicas
// consistent with the global rows, ghost tables closed under the
// exchange plan, the phantom 2m padding), the k=1 bitwise identity
// against the core backend, quality under real sharding, and the
// fingerprint/registry integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/louvain.hpp"
#include "detect/detector.hpp"
#include "gen/cliques.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "graph/builder.hpp"
#include "metrics/modularity.hpp"
#include "shard/engine.hpp"
#include "shard/halo.hpp"
#include "shard/partition.hpp"
#include "shard/plan_cache.hpp"
#include "simt/device_pool.hpp"
#include "svc/fingerprint.hpp"
#include "util/prng.hpp"

namespace glouvain::shard {
namespace {

using graph::Community;
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;
using graph::kInvalidVertex;

/// Check every structural invariant of a plan against its graph.
void check_plan(const Csr& g, const Plan& plan, const PartitionConfig& pc) {
  const VertexId n = g.num_vertices();
  ASSERT_EQ(plan.owner.size(), n);
  ASSERT_EQ(plan.shards.size(), plan.num_shards);
  for (const unsigned o : plan.owner) ASSERT_LT(o, plan.num_shards);

  // Every edge owned by exactly one shard (the min-endpoint rule):
  // the per-shard owned_edges counts must tile the edge set.
  EdgeIdx owned_total = 0;
  for (const Shard& sh : plan.shards) owned_total += sh.owned_edges;
  EXPECT_EQ(owned_total, g.num_edges());

  std::vector<VertexId> seen_owner(n, kInvalidVertex);
  std::uint64_t frozen_listed = 0;
  for (unsigned s = 0; s < plan.num_shards; ++s) {
    const Shard& sh = plan.shards[s];
    const VertexId local_n = sh.num_local();
    ASSERT_EQ(sh.global_of.size(), local_n);
    ASSERT_EQ(local_n, sh.num_owned + sh.num_replica + sh.num_ghost +
                           (sh.has_phantom ? 1 : 0));

    // The phantom makes every shard's 2m equal the global 2m (modulo
    // the parallel-reduction rounding of total_weight()).
    EXPECT_GE(sh.pad_weight, 0.0);
    if (sh.has_phantom) {
      EXPECT_NEAR(sh.local.total_weight(), g.total_weight(),
                  1e-9 * g.total_weight());
    }

    // Build the global->local map of this shard.
    std::map<VertexId, VertexId> to_local;
    for (VertexId i = 0; i < local_n; ++i) {
      const VertexId v = sh.global_of[i];
      if (i + 1 == local_n && sh.has_phantom) {
        EXPECT_EQ(v, kInvalidVertex);
        continue;
      }
      ASSERT_LT(v, n);
      EXPECT_TRUE(to_local.emplace(v, i).second) << "duplicate local vertex";
    }

    for (VertexId i = 0; i < local_n; ++i) {
      const VertexId v = sh.global_of[i];
      const auto lnbr = sh.local.neighbors(i);
      const auto lwts = sh.local.weights(i);
      if (sh.has_phantom && i + 1 == local_n) {
        // Phantom: exactly one self-loop carrying the pad.
        ASSERT_EQ(lnbr.size(), 1u);
        EXPECT_EQ(lnbr[0], i);
        EXPECT_DOUBLE_EQ(lwts[0], sh.pad_weight);
        continue;
      }
      if (i < sh.num_owned) {
        // Owned: the full global row, bitwise, endpoints remapped.
        EXPECT_EQ(plan.owner[v], s);
        const auto gnbr = g.neighbors(v);
        const auto gwts = g.weights(v);
        ASSERT_EQ(lnbr.size(), gnbr.size());
        for (std::size_t e = 0; e < gnbr.size(); ++e) {
          const auto it = to_local.find(gnbr[e]);
          ASSERT_NE(it, to_local.end()) << "owned-row endpoint not local";
          EXPECT_EQ(lnbr[e], it->second);
          EXPECT_EQ(lwts[e], gwts[e]);
        }
      } else if (i < sh.num_owned + sh.num_replica) {
        // Replica (hub mirror): the split row — exactly the global
        // edges of v whose endpoint this shard owns, same weights.
        EXPECT_NE(plan.owner[v], s);
        EXPECT_GT(g.degree(v), pc.hub_degree);
        std::multiset<std::pair<VertexId, Weight>> expect;
        const auto gnbr = g.neighbors(v);
        const auto gwts = g.weights(v);
        for (std::size_t e = 0; e < gnbr.size(); ++e) {
          if (plan.owner[gnbr[e]] == s) expect.emplace(gnbr[e], gwts[e]);
        }
        std::multiset<std::pair<VertexId, Weight>> got;
        for (std::size_t e = 0; e < lnbr.size(); ++e) {
          const VertexId u = sh.global_of[lnbr[e]];
          EXPECT_EQ(plan.owner[u], s) << "split-row endpoint not owned";
          got.emplace(u, lwts[e]);
        }
        EXPECT_EQ(got, expect);
      } else {
        // Ghost: label-only, empty row. Under hubrep a hub can never
        // be a ghost (the owned neighbor guarantees a mirror); block
        // and random have no mirrors, so hub-degree ghosts are fine.
        EXPECT_NE(plan.owner[v], s);
        if (pc.strategy == detect::Partition::kHubRep) {
          EXPECT_LE(g.degree(v), pc.hub_degree);
        }
        EXPECT_EQ(lnbr.size(), 0u);
      }
    }

    // Exchange count: every distinct frozen non-phantom vertex is one
    // label read from its owner per round.
    std::set<VertexId> frozen;
    for (VertexId i = sh.num_owned;
         i < sh.num_owned + sh.num_replica + sh.num_ghost; ++i) {
      frozen.insert(sh.global_of[i]);
    }
    frozen_listed += frozen.size();

    // Every owned vertex claimed exactly once across shards.
    for (VertexId i = 0; i < sh.num_owned; ++i) {
      ASSERT_EQ(seen_owner[sh.global_of[i]], kInvalidVertex);
      seen_owner[sh.global_of[i]] = s;
    }
  }
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(seen_owner[v], plan.owner[v]);
  EXPECT_EQ(plan.exchange.values_per_round(), frozen_listed);
  std::uint64_t phantoms = 0;
  for (const Shard& sh : plan.shards) phantoms += sh.has_phantom ? 1 : 0;
  EXPECT_NEAR(plan.stats.ghost_ratio,
              static_cast<double>(frozen_listed + phantoms) / n, 1e-12);
}

TEST(Partition, InvariantsAcrossStrategiesAndCounts) {
  const Csr g = gen::rmat({.scale = 11, .edge_factor = 12}, 17);
  for (const auto strategy :
       {detect::Partition::kBlock, detect::Partition::kRandom,
        detect::Partition::kHubRep}) {
    for (const unsigned k : {2u, 3u, 8u}) {
      PartitionConfig pc;
      pc.num_shards = k;
      pc.strategy = strategy;
      pc.hub_degree = 24;  // rmat at this scale has real hubs above this
      const Plan plan = make_plan(g, pc);
      ASSERT_EQ(plan.num_shards, k);
      check_plan(g, plan, pc);
      if (strategy == detect::Partition::kHubRep) {
        EXPECT_GT(plan.stats.replicated_hubs, 0u);
      }
    }
  }
}

TEST(Partition, SingleShardIsTheInputGraph) {
  const auto bench = gen::lfr({.num_vertices = 2048, .mu = 0.2, .seed = 5});
  PartitionConfig pc;
  pc.num_shards = 1;
  const Plan plan = make_plan(bench.graph, pc);
  ASSERT_EQ(plan.num_shards, 1u);
  const Shard& sh = plan.shards[0];
  EXPECT_FALSE(sh.has_phantom);
  EXPECT_EQ(sh.num_owned, bench.graph.num_vertices());
  EXPECT_EQ(sh.num_frozen(), 0u);
  EXPECT_EQ(sh.local, bench.graph);  // bitwise: same arrays
  EXPECT_EQ(plan.stats.cut_edges, 0u);
}

TEST(Partition, MoreShardsThanVerticesClamps) {
  const auto g = gen::ring_of_cliques(2, 3);
  PartitionConfig pc;
  pc.num_shards = 100;
  const Plan plan = make_plan(g, pc);
  EXPECT_LE(plan.num_shards, g.num_vertices());
  check_plan(g, plan, pc);
}

TEST(Partition, HubRepReplicatesHighDegreeRows) {
  // A star: the hub touches every block, so hubrep must mirror it into
  // every other shard while block partitioning makes it a ghostless cut.
  std::vector<graph::Edge> edges;
  for (VertexId v = 1; v < 1025; ++v) edges.push_back({0, v, 1.0});
  const Csr g = graph::build_csr(1025, std::move(edges));
  PartitionConfig pc;
  pc.num_shards = 4;
  pc.strategy = detect::Partition::kHubRep;
  const Plan plan = make_plan(g, pc);
  check_plan(g, plan, pc);
  EXPECT_EQ(plan.stats.replicated_hubs, 1u);
  // In the leaf shards every cut edge carries the hub endpoint, which
  // is mirrored — no ghosts. The hub's own shard holds the full star
  // row, so the leaves owned elsewhere are its ghosts.
  for (unsigned s = 0; s < plan.num_shards; ++s) {
    if (s == plan.owner[0]) {
      EXPECT_EQ(plan.shards[s].num_ghost + plan.shards[s].num_owned, 1025u);
    } else {
      EXPECT_EQ(plan.shards[s].num_ghost, 0u);
      EXPECT_EQ(plan.shards[s].num_replica, 1u);
    }
  }
}

/// Field-by-field equality, floating-point fields compared exactly.
void expect_same_plan(const Plan& a, const Plan& b) {
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.owner, b.owner);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    const Shard& x = a.shards[s];
    const Shard& y = b.shards[s];
    EXPECT_EQ(x.global_of, y.global_of) << "shard " << s;
    EXPECT_EQ(x.local, y.local) << "shard " << s;  // the three Csr arrays
    EXPECT_EQ(x.num_owned, y.num_owned);
    EXPECT_EQ(x.num_replica, y.num_replica);
    EXPECT_EQ(x.num_ghost, y.num_ghost);
    EXPECT_EQ(x.pad_weight, y.pad_weight) << "shard " << s;
    EXPECT_EQ(x.owned_edges, y.owned_edges);
  }
  EXPECT_EQ(a.stats.cut_edges, b.stats.cut_edges);
  EXPECT_EQ(a.stats.cut_fraction, b.stats.cut_fraction);
  EXPECT_EQ(a.stats.ghost_ratio, b.stats.ghost_ratio);
  EXPECT_EQ(a.stats.imbalance, b.stats.imbalance);
  EXPECT_EQ(a.stats.replicated_hubs, b.stats.replicated_hubs);
  EXPECT_EQ(a.exchange.values, b.exchange.values);
}

TEST(Partition, PlanIdenticalAcrossWorkerCounts) {
  // Large enough that the scans and the owner sort take their chunked
  // parallel paths. The second graph carries non-integer weights, whose
  // pad sums would differ if any sum followed the schedule.
  const Csr g = gen::rmat({.scale = 16, .edge_factor = 1}, 19);
  std::vector<graph::Edge> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.neighbors(v)) {
      if (u < v) continue;
      edges.push_back(
          {v, u, 0.1 + static_cast<double>(util::hash64(v * 131071ull + u) %
                                           1000) / 997.0});
    }
  }
  const Csr weighted = graph::build_csr(g.num_vertices(), std::move(edges));
  simt::ThreadPool one(1), two(2), four(4);
  for (const Csr* graph : {&g, &weighted}) {
    for (const auto strategy :
         {detect::Partition::kBlock, detect::Partition::kRandom,
          detect::Partition::kHubRep}) {
      for (const unsigned k : {2u, 3u, 8u}) {
        SCOPED_TRACE(std::string(partition_name(strategy)) +
                     " k=" + std::to_string(k));
        PartitionConfig pc;
        pc.num_shards = k;
        pc.strategy = strategy;
        pc.hub_degree = 48;
        const Plan reference = make_plan(*graph, pc, one);
        if (strategy == detect::Partition::kHubRep) {
          EXPECT_GT(reference.stats.replicated_hubs, 0u);
        }
        expect_same_plan(make_plan(*graph, pc, two), reference);
        expect_same_plan(make_plan(*graph, pc, four), reference);
      }
    }
  }
}

TEST(GlobalState, AccessorsRoundTrip) {
  const Csr g = graph::build_csr(4, {{0, 1, 1}, {1, 2, 2}, {2, 3, 1}});
  GlobalState gs;
  gs.reset(g.num_vertices());
  EXPECT_EQ(gs.community_of(2), 2u);
  const auto strengths = g.compute_strengths();
  gs.rebuild_tot(strengths);
  EXPECT_DOUBLE_EQ(gs.tot_of(1), 3.0);
  gs.store_label(3, 2);
  gs.rebuild_tot(strengths);
  EXPECT_DOUBLE_EQ(gs.tot_of(2), 4.0);
  EXPECT_DOUBLE_EQ(gs.tot_of(3), 0.0);
}

shard::Config pinned_config() {
  shard::Config cfg;
  cfg.threads = 2;
  cfg.device = simt::Backend::kScalar;
  return cfg;
}

TEST(Engine, SingleShardBitwiseIdenticalToCore) {
  const auto bench = gen::lfr({.num_vertices = 4096, .mu = 0.25, .seed = 3});
  shard::Config cfg = pinned_config();
  cfg.shards = 1;
  const Result sharded = louvain(bench.graph, cfg);

  core::Config core_cfg = core::to_config(cfg);
  const core::Result reference = core::louvain(bench.graph, core_cfg);

  EXPECT_EQ(sharded.shards_used, 1u);
  EXPECT_EQ(sharded.community, reference.community);  // bitwise labels
  EXPECT_EQ(sharded.modularity, reference.modularity);
  ASSERT_EQ(sharded.levels.size(), reference.levels.size());
  for (std::size_t l = 0; l < sharded.levels.size(); ++l) {
    EXPECT_EQ(sharded.levels[l].vertices, reference.levels[l].vertices);
    EXPECT_EQ(sharded.levels[l].iterations, reference.levels[l].iterations);
    EXPECT_EQ(sharded.levels[l].modularity_after,
              reference.levels[l].modularity_after);
  }
}

TEST(Engine, ShardedQualityTracksCore) {
  const auto bench = gen::lfr({.num_vertices = 4096, .mu = 0.25, .seed = 7});
  const double q_core = core::louvain(bench.graph).modularity;
  for (const auto strategy :
       {detect::Partition::kBlock, detect::Partition::kHubRep}) {
    for (const unsigned k : {2u, 4u, 8u}) {
      shard::Config cfg = pinned_config();
      cfg.shards = k;
      cfg.partition = strategy;
      cfg.min_shard_vertices = 64;  // force real sharding on 4k vertices
      cfg.hub_degree = 48;
      const Result r = louvain(bench.graph, cfg);
      EXPECT_EQ(r.shards_used, k);
      EXPECT_GE(r.exchange_rounds, 1);
      EXPECT_GT(r.critical_seconds, 0.0);
      EXPECT_GT(r.modularity, 0.97 * q_core)
          << partition_name(strategy) << " k=" << k;
      EXPECT_NEAR(r.modularity,
                  metrics::modularity(bench.graph, r.community), 1e-6)
          << partition_name(strategy) << " k=" << k;
    }
  }
}

TEST(Engine, PlantedStructureSurvivesSharding) {
  const auto sbm = gen::planted_partition(
      {.num_vertices = 2048, .num_communities = 16, .seed = 9});
  shard::Config cfg = pinned_config();
  cfg.shards = 4;
  cfg.min_shard_vertices = 64;
  const Result r = louvain(sbm.graph, cfg);
  const double q_core = core::louvain(sbm.graph).modularity;
  EXPECT_GT(r.modularity, 0.97 * q_core);
  EXPECT_EQ(r.community.size(), sbm.graph.num_vertices());
}

TEST(Engine, AdaptiveCollapseOnSmallGraphs) {
  // 64 shards requested on a tiny graph: every level falls below
  // min_shard_vertices, so the run is the core-identical path.
  const auto g = gen::ring_of_cliques(8, 6);
  shard::Config cfg = pinned_config();
  cfg.shards = 64;
  const Result r = louvain(g, cfg);
  EXPECT_EQ(r.shards_used, 1u);
  EXPECT_EQ(r.exchange_rounds, 0);
  core::Config core_cfg = core::to_config(cfg);
  EXPECT_EQ(r.community, core::louvain(g, core_cfg).community);
}

TEST(Detector, RegistryRunsShardBackend) {
  const auto bench = gen::lfr({.num_vertices = 2048, .mu = 0.2, .seed = 11});
  auto detector = detect::make("shard");
  ASSERT_TRUE(detector.ok());
  detect::Options options;
  options.shards = 2;
  options.device = simt::Backend::kScalar;
  const detect::Result r = (*detector)->run(bench.graph, options);
  EXPECT_EQ(r.community.size(), bench.graph.num_vertices());
  EXPECT_GT(r.modularity, 0.0);
  const auto names = detect::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "shard"), names.end());
}

TEST(Detector, ShardRejectsIncompatibleKnobs) {
  const auto g = gen::ring_of_cliques(4, 4);
  auto detector = detect::make("shard");
  ASSERT_TRUE(detector.ok());
  detect::Options options;
  auto warm = std::make_shared<detect::WarmStart>();
  warm->seed.assign(g.num_vertices(), 0);
  options.warm_start = warm;
  EXPECT_THROW((*detector)->run(g, options), std::invalid_argument);
}

shard::Config sharded_config(unsigned k, bool concurrent) {
  shard::Config cfg = pinned_config();
  cfg.shards = k;
  cfg.min_shard_vertices = 64;  // force real sharding on 4k vertices
  cfg.hub_degree = 48;
  cfg.concurrent_shards = concurrent;
  return cfg;
}

TEST(Engine, ConcurrentSingleShardBitwiseIdenticalToCore) {
  // k <= 1 must stay the core-identical path whether or not concurrent
  // rounds are on (there is nothing to lease at k = 1).
  const auto bench = gen::lfr({.num_vertices = 4096, .mu = 0.25, .seed = 3});
  const core::Result reference =
      core::louvain(bench.graph, core::to_config(pinned_config()));
  const Result r = louvain(bench.graph, sharded_config(1, true));
  EXPECT_EQ(r.shards_used, 1u);
  EXPECT_EQ(r.community, reference.community);  // bitwise labels
  EXPECT_EQ(r.modularity, reference.modularity);
}

TEST(Engine, ConcurrentQualityTracksSequential) {
  // The validated barrier commit keeps the Jacobi rounds within the
  // quality envelope of the sequential Gauss-Seidel rounds.
  const auto bench = gen::lfr({.num_vertices = 4096, .mu = 0.25, .seed = 7});
  for (const auto strategy :
       {detect::Partition::kBlock, detect::Partition::kHubRep}) {
    for (const unsigned k : {2u, 4u}) {
      shard::Config seq_cfg = sharded_config(k, false);
      seq_cfg.partition = strategy;
      shard::Config conc_cfg = seq_cfg;
      conc_cfg.concurrent_shards = true;
      const Result seq = louvain(bench.graph, seq_cfg);
      const Result conc = louvain(bench.graph, conc_cfg);
      EXPECT_EQ(conc.shards_used, k);
      EXPECT_GE(conc.devices_used, 1u);
      EXPECT_GT(conc.modularity, 0.98 * seq.modularity)
          << partition_name(strategy) << " k=" << k;
      EXPECT_NEAR(conc.modularity,
                  metrics::modularity(bench.graph, conc.community), 1e-6);
    }
  }
}

TEST(Engine, ConcurrentDeterministicAcrossDeviceCounts) {
  // The barrier applies proposals in fixed shard order, so the answer
  // must be identical whether the pool grants 1 lane (fully degraded,
  // round-robin multiplexed) or one lane per shard. The pool is private
  // and uncontended, so the 4-shard lease gets its full width.
  const auto bench = gen::lfr({.num_vertices = 4096, .mu = 0.25, .seed = 13});
  std::vector<Community> labels;
  double q = 0;
  bool first = true;
  for (const unsigned width : {1u, 2u, 4u}) {
    shard::Config cfg = sharded_config(4, true);
    simt::DevicePoolConfig pc;
    pc.max_devices = width;
    pc.total_threads = 2;
    pc.device.backend = cfg.device;
    pc.device.worker_threads = 0;
    cfg.device_pool = std::make_shared<simt::DevicePool>(pc);
    const Result r = louvain(bench.graph, cfg);
    EXPECT_EQ(r.devices_used, width);
    if (first) {
      labels = r.community;
      q = r.modularity;
      first = false;
    } else {
      EXPECT_EQ(r.community, labels) << "pool width " << width;
      EXPECT_EQ(r.modularity, q) << "pool width " << width;
    }
  }
}

TEST(PlanCache, LruHitMissEviction) {
  PlanCache cache(2);
  const Csr g1 = gen::ring_of_cliques(4, 4);
  const Csr g2 = gen::ring_of_cliques(5, 4);
  const Csr g3 = gen::ring_of_cliques(6, 4);
  PartitionConfig pc;
  pc.num_shards = 2;
  const PlanKey k1 = plan_key(g1, pc);
  const PlanKey k2 = plan_key(g2, pc);
  const PlanKey k3 = plan_key(g3, pc);

  EXPECT_EQ(cache.get(k1), nullptr);
  cache.put(k1, std::make_shared<Plan>(make_plan(g1, pc)));
  cache.put(k2, std::make_shared<Plan>(make_plan(g2, pc)));
  EXPECT_NE(cache.get(k1), nullptr);  // refreshes k1's LRU position
  cache.put(k3, std::make_shared<Plan>(make_plan(g3, pc)));
  EXPECT_EQ(cache.get(k2), nullptr);  // k2 was LRU, evicted
  EXPECT_NE(cache.get(k1), nullptr);
  EXPECT_NE(cache.get(k3), nullptr);

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(PlanCache, KeyTracksContentAndKnobs) {
  // A stream delta that changes the graph changes the fingerprint and
  // with it the key — stale plans are never served, only forgotten.
  const Csr g = gen::ring_of_cliques(6, 5);
  Csr same = gen::ring_of_cliques(6, 5);
  Csr heavier = graph::build_csr(
      g.num_vertices(), [&] {
        std::vector<graph::Edge> edges;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const auto nbr = g.neighbors(v);
          const auto wts = g.weights(v);
          for (std::size_t e = 0; e < nbr.size(); ++e) {
            if (nbr[e] > v) edges.push_back({v, nbr[e], wts[e]});
          }
        }
        edges[0].w += 1.0;  // the delta
        return edges;
      }());
  PartitionConfig pc;
  pc.num_shards = 2;
  const PlanKey base = plan_key(g, pc);
  EXPECT_EQ(base, plan_key(same, pc));
  EXPECT_NE(base, plan_key(heavier, pc));
  PartitionConfig reseeded = pc;
  reseeded.seed = 99;
  EXPECT_NE(base, plan_key(g, reseeded));
}

TEST(PlanCache, EngineReusesCachedPlans) {
  plan_cache().clear();
  const auto bench = gen::lfr({.num_vertices = 4096, .mu = 0.25, .seed = 31});
  shard::Config cfg = sharded_config(2, false);
  Engine engine(cfg);
  const Result r1 = engine.run(bench.graph);
  EXPECT_GT(r1.plan_misses, 0u);
  EXPECT_EQ(r1.plan_hits, 0u);
  const Result r2 = engine.run(bench.graph);
  EXPECT_EQ(r2.plan_misses, 0u);
  EXPECT_EQ(r2.plan_hits, r1.plan_misses);
  EXPECT_EQ(r2.community, r1.community);  // cached plans, same answer
}

TEST(PlanCache, DisabledCacheIsNeverConsulted) {
  // With capacity 0 the engine builds every plan without a key: the
  // cache sees no lookups and no insertions, the run still counts one
  // miss per sharded level, and the answer is the cached engine's.
  const auto bench = gen::lfr({.num_vertices = 4096, .mu = 0.25, .seed = 31});
  const shard::Config cached = sharded_config(2, false);
  plan_cache().clear();
  const Result reference = Engine(cached).run(bench.graph);

  shard::Config uncached = cached;
  uncached.plan_cache_capacity = 0;
  Engine engine(uncached);
  const PlanCache::Stats before = plan_cache().stats();
  const Result r = engine.run(bench.graph);
  const PlanCache::Stats after = plan_cache().stats();
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);

  const auto sharded_levels = std::count_if(
      r.levels.begin(), r.levels.end(), [&](const LevelReport& l) {
        return l.vertices / uncached.min_shard_vertices >= 2;
      });
  EXPECT_GT(sharded_levels, 0);
  EXPECT_EQ(r.plan_misses, static_cast<std::uint64_t>(sharded_levels));
  EXPECT_EQ(r.plan_hits, 0u);
  EXPECT_EQ(r.community, reference.community);
  EXPECT_EQ(r.modularity, reference.modularity);  // the same bits
}

TEST(Fingerprint, JobKeyAbsorbsShardKnobs) {
  const auto g = gen::ring_of_cliques(4, 4);
  const graph::Fingerprint128 fp = graph::fingerprint128(g);
  detect::Options base;
  const auto key = [&](const detect::Options& o) {
    return svc::job_key(fp, "shard", o);
  };
  detect::Options two = base;
  two.shards = 2;
  detect::Options four = base;
  four.shards = 4;
  EXPECT_NE(key(two), key(four));
  detect::Options block = two;
  block.partition = detect::Partition::kBlock;
  EXPECT_NE(key(two), key(block));
  detect::Options reseeded = two;
  reseeded.partition_seed = 99;
  EXPECT_NE(key(two), key(reseeded));
  // threads must NOT change the key (speed, not answer).
  detect::Options threaded = two;
  threaded.threads = 7;
  EXPECT_EQ(key(two), key(threaded));
}

}  // namespace
}  // namespace glouvain::shard
