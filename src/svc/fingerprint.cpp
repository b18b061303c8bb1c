#include "svc/fingerprint.hpp"

#include <bit>
#include <cstdio>

#include "graph/fingerprint.hpp"

namespace glouvain::svc {

namespace {

// Two independent mixing lanes (distinct odd multipliers, splitmix64
// finalizer) so a single 64-bit collision does not collide the pair.
struct Mixer {
  std::uint64_t state;

  void absorb(std::uint64_t x) noexcept {
    state += x * 0x9e3779b97f4a7c15ULL;
    state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9ULL;
    state = (state ^ (state >> 27)) * 0x94d049bb133111ebULL;
    state ^= state >> 31;
  }
};

}  // namespace

std::string Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

Fingerprint fingerprint(const graph::Csr& graph) {
  // The hash itself lives in the graph layer (graph::fingerprint128)
  // so the shard plan cache can share it without an svc dependency.
  const graph::Fingerprint128 fp = graph::fingerprint128(graph);
  return {fp.hi, fp.lo};
}

Fingerprint job_key(const Fingerprint& graph_fp, std::string_view backend,
                    const detect::Options& options, std::uint64_t session,
                    std::uint64_t epoch) {
  Mixer a{graph_fp.hi};
  Mixer b{graph_fp.lo};

  a.absorb(backend.size());
  for (const char c : backend) {
    a.absorb(static_cast<unsigned char>(c));
    b.absorb(static_cast<unsigned char>(c) ^ 0x6bULL);
  }

  const auto absorb_double = [&](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    a.absorb(bits);
    b.absorb(bits ^ 0xa5a5a5a5a5a5a5a5ULL);
  };
  absorb_double(options.thresholds.t_bin);
  absorb_double(options.thresholds.t_final);
  a.absorb(options.thresholds.adaptive_limit);
  b.absorb(options.thresholds.adaptive ? 1 : 2);
  a.absorb(static_cast<std::uint64_t>(options.max_levels));
  b.absorb(static_cast<std::uint64_t>(options.max_sweeps_per_level));
  // The RESOLVED lane backend keys the cache, not the request: kAuto
  // and an explicit request for what kAuto resolves to produce the
  // same partition, and a vector-backend result must never satisfy a
  // later --device scalar request (different fold order).
  const auto resolved =
      static_cast<std::uint64_t>(simt::resolve_backend(options.device));
  a.absorb(resolved + 0x517cc1b727220a95ULL);
  b.absorb(~resolved);
  // Sharding changes the computation (a different partition explores a
  // different move order), so shard count, strategy and seed all key
  // the cache. Backends that ignore them absorb the defaults, which is
  // harmless.
  a.absorb(static_cast<std::uint64_t>(options.shards) + 0x1000);
  b.absorb(~static_cast<std::uint64_t>(options.shards));
  a.absorb(static_cast<std::uint64_t>(options.partition) + 17);
  b.absorb(static_cast<std::uint64_t>(options.partition) * 0xc2b2ae3d27d4eb4fULL);
  a.absorb(options.partition_seed);
  b.absorb(options.partition_seed ^ 0x9e3779b97f4a7c15ULL);
  // Concurrent Jacobi rounds are a different move schedule than the
  // sequential Gauss-Seidel simulation, so the flag keys the cache.
  a.absorb(options.concurrent_shards ? 19 : 23);
  b.absorb(options.concurrent_shards ? 29 : 31);

  a.absorb(session);
  b.absorb(session + 0x2545f4914f6cdd1dULL);
  a.absorb(epoch);
  b.absorb(~epoch);
  return {a.state, b.state};
}

}  // namespace glouvain::svc
