// LRU cache of partition plans, the shard-side sibling of the service
// result cache (svc/cache.hpp, the same util::LruCache): repeated jobs
// on the same graph skip make_plan() entirely. Keyed by CONTENT, not
// identity: the graph enters through graph::fingerprint128, so a stream
// delta that changes the graph changes the key and the stale plan
// simply stops being referenced (LRU eviction reclaims it; nothing ever
// has to be invalidated in place).
//
// Thread-safe: many svc submitters may race on one plan. Entries are
// shared_ptr<const Plan>, so an evicted plan stays alive until the last
// engine using it lets go.
//
// The cache is process-global (plan_cache()), shared by every Engine
// exactly like the zg side tables are shared per process. Its
// hit/miss/eviction counters are read from plan_cache().stats(); the
// engine mirrors the per-run traffic into the obs counters
// cache/plan_hit and cache/plan_miss.
#pragma once

#include <cstdint>

#include "detect/options.hpp"
#include "graph/csr.hpp"
#include "graph/fingerprint.hpp"
#include "shard/partition.hpp"
#include "util/lru_cache.hpp"

namespace glouvain::shard {

/// Everything that determines a plan: graph content, shard count,
/// strategy, seed and the hub threshold.
struct PlanKey {
  graph::Fingerprint128 fp;
  unsigned shards = 1;
  detect::Partition strategy = detect::Partition::kHubRep;
  std::uint64_t seed = 1;
  graph::EdgeIdx hub_degree = 319;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

/// Build the cache key for partitioning `graph` under `config`.
/// O(n + m) — one serial fingerprint pass, which the engine skips when
/// plan caching is disabled.
PlanKey plan_key(const graph::Csr& graph, const PartitionConfig& config);

using PlanCache = util::LruCache<PlanKey, Plan, PlanKeyHash>;

/// The process-wide plan cache every Engine consults.
PlanCache& plan_cache();

}  // namespace glouvain::shard
