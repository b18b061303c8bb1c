// Content identity of a graph: a 128-bit hash over the raw CSR arrays
// (offsets, adjacency, edge weights). Two structurally identical graphs
// — same vertex numbering, same neighbor order, same weights — produce
// the same fingerprint, which is what the service's result cache keys
// on: per Chiêm et al. (arXiv:1702.04645) run-to-run nondeterminism is
// acceptable as long as quality holds, so identity of the INPUT, not of
// the run, is the right cache key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "detect/options.hpp"
#include "graph/csr.hpp"

namespace glouvain::svc {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// 32 hex digits, for logs and the batch report.
  std::string hex() const;
};

/// For unordered_map keying.
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const noexcept {
    return static_cast<std::size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Hash the CSR arrays. O(n + m); single pass, no allocation.
Fingerprint fingerprint(const graph::Csr& graph);

/// The result cache's actual key: the graph fingerprint folded with
/// everything else that determines the answer — the backend name, the
/// quality-relevant algorithm options (thresholds, level/sweep caps;
/// NOT `threads`, which only changes speed), and for dynamic-graph
/// sessions the (session, delta-epoch) pair, so a cached result never
/// outlives a mutation and two sessions at the same epoch never alias.
/// A warm start is not absorbed, so the service never caches a job
/// that carries one. O(1); cheap enough to call per submit.
Fingerprint job_key(const Fingerprint& graph_fp, std::string_view backend,
                    const detect::Options& options, std::uint64_t session = 0,
                    std::uint64_t epoch = 0);

}  // namespace glouvain::svc
