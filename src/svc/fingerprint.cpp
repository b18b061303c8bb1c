#include "svc/fingerprint.hpp"

#include <bit>

namespace glouvain::svc {

graph::Fingerprint128 job_key(const graph::Fingerprint128& graph_fp,
                              std::string_view backend,
                              const detect::Options& options,
                              std::uint64_t session, std::uint64_t epoch) {
  using graph::mix;
  std::uint64_t a = graph_fp.hi;
  std::uint64_t b = graph_fp.lo;

  a = mix(a, backend.size());
  for (const char c : backend) {
    a = mix(a, static_cast<unsigned char>(c));
    b = mix(b, static_cast<unsigned char>(c) ^ 0x6bULL);
  }

  const auto absorb_double = [&](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    a = mix(a, bits);
    b = mix(b, bits ^ 0xa5a5a5a5a5a5a5a5ULL);
  };
  absorb_double(options.thresholds.t_bin);
  absorb_double(options.thresholds.t_final);
  a = mix(a, options.thresholds.adaptive_limit);
  b = mix(b, options.thresholds.adaptive ? 1 : 2);
  a = mix(a, static_cast<std::uint64_t>(options.max_levels));
  b = mix(b, static_cast<std::uint64_t>(options.max_sweeps_per_level));
  // The RESOLVED lane backend keys the cache, not the request: kAuto
  // and an explicit request for what kAuto resolves to produce the
  // same partition, and a vector-backend result must never satisfy a
  // later --device scalar request (its modularity row sums
  // re-associate).
  const auto resolved =
      static_cast<std::uint64_t>(simt::resolve_backend(options.device));
  a = mix(a, resolved + 0x517cc1b727220a95ULL);
  b = mix(b, ~resolved);
  // Sharding changes the computation (a different partition explores a
  // different move order), so shard count, strategy and seed all key
  // the cache. Backends that ignore them absorb the defaults, which is
  // harmless.
  a = mix(a, static_cast<std::uint64_t>(options.shards) + 0x1000);
  b = mix(b, ~static_cast<std::uint64_t>(options.shards));
  a = mix(a, static_cast<std::uint64_t>(options.partition) + 17);
  b = mix(b, static_cast<std::uint64_t>(options.partition) * 0xc2b2ae3d27d4eb4fULL);
  a = mix(a, options.partition_seed);
  b = mix(b, options.partition_seed ^ 0x9e3779b97f4a7c15ULL);
  // Concurrent Jacobi rounds are a different move schedule than the
  // sequential Gauss-Seidel simulation, so the flag keys the cache.
  a = mix(a, options.concurrent_shards ? 19 : 23);
  b = mix(b, options.concurrent_shards ? 29 : 31);

  a = mix(a, session);
  b = mix(b, session + 0x2545f4914f6cdd1dULL);
  a = mix(a, epoch);
  b = mix(b, ~epoch);
  return {a, b};
}

}  // namespace glouvain::svc
