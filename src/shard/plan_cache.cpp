#include "shard/plan_cache.hpp"

namespace glouvain::shard {

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  using graph::mix;
  std::uint64_t h = mix(k.fp.hi, k.fp.lo);
  h = mix(h, k.shards);
  h = mix(h, static_cast<std::uint64_t>(k.strategy));
  h = mix(h, k.seed);
  h = mix(h, k.hub_degree);
  return static_cast<std::size_t>(h);
}

PlanKey plan_key(const graph::Csr& graph, const PartitionConfig& config) {
  return {graph::fingerprint128(graph), config.num_shards, config.strategy,
          config.seed, config.hub_degree};
}

PlanCache& plan_cache() {
  static PlanCache cache(8);
  return cache;
}

}  // namespace glouvain::shard
