#include "shard/plan_cache.hpp"

#include "graph/fingerprint.hpp"

namespace glouvain::shard {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::uint64_t h = k.fp_hi;
  h = mix64(h ^ (k.fp_lo + 0x9e3779b97f4a7c15ULL));
  h = mix64(h ^ (static_cast<std::uint64_t>(k.shards) + 0x1000));
  h = mix64(h ^ (static_cast<std::uint64_t>(k.strategy) + 17));
  h = mix64(h ^ k.seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(k.hub_degree) + 0x5bf0a8b1ULL));
  return static_cast<std::size_t>(h);
}

PlanKey plan_key(const graph::Csr& graph, const PartitionConfig& config) {
  const graph::Fingerprint128 fp = graph::fingerprint128(graph);
  PlanKey key;
  key.fp_hi = fp.hi;
  key.fp_lo = fp.lo;
  key.shards = config.num_shards;
  key.strategy = config.strategy;
  key.seed = config.seed;
  key.hub_degree = config.hub_degree;
  return key;
}

PlanCache& plan_cache() {
  static PlanCache cache(8);
  return cache;
}

}  // namespace glouvain::shard
