// Content identity of a graph: a 128-bit hash over the raw CSR arrays
// (offsets, adjacency, edge weights). Two structurally identical graphs
// — same vertex numbering, same neighbor order, same weights — produce
// the same fingerprint. This lives in the graph layer (below every
// backend) so both the service result cache (svc::job_key folds it
// with the job's options) and the shard partition-plan cache key on
// graph content without a dependency on each other.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/csr.hpp"
#include "util/prng.hpp"

namespace glouvain::graph {

struct Fingerprint128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint128&,
                         const Fingerprint128&) = default;
};

/// For unordered_map keying.
struct Fingerprint128Hash {
  std::size_t operator()(const Fingerprint128& f) const noexcept {
    return static_cast<std::size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// The one mixing step behind every content hash of the library
/// (fingerprint128, svc::job_key, the plan cache's key hash): absorb
/// `x` into `state` with a golden-ratio multiply and the splitmix64
/// finalizer.
constexpr std::uint64_t mix(std::uint64_t state, std::uint64_t x) noexcept {
  return util::hash64(state + x * 0x9e3779b97f4a7c15ULL);
}

/// Hash the CSR arrays. O(n + m); single pass, no allocation. Two
/// independent mixing lanes (distinct seeds and per-lane tweaks) so a
/// single 64-bit collision does not collide the pair.
Fingerprint128 fingerprint128(const Csr& graph);

}  // namespace glouvain::graph
