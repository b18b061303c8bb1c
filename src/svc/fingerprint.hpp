// The service's result-cache key. The graph enters through its content
// hash, graph::fingerprint128: two structurally identical graphs — same
// vertex numbering, same neighbor order, same weights — key alike. Per
// Chiêm et al. (arXiv:1702.04645) run-to-run nondeterminism is
// acceptable as long as quality holds, so identity of the INPUT, not of
// the run, is the right cache key.
#pragma once

#include <cstdint>
#include <string_view>

#include "detect/options.hpp"
#include "graph/fingerprint.hpp"

namespace glouvain::svc {

/// The result cache's actual key: the graph fingerprint folded with
/// everything else that determines the answer — the backend name, the
/// quality-relevant algorithm options (thresholds, level/sweep caps;
/// NOT `threads`, which only changes speed), and for dynamic-graph
/// sessions the (session, delta-epoch) pair, so a cached result never
/// outlives a mutation and two sessions at the same epoch never alias.
/// A warm start is not absorbed, so the service never caches a job
/// that carries one. O(1); cheap enough to call per submit.
graph::Fingerprint128 job_key(const graph::Fingerprint128& graph_fp,
                              std::string_view backend,
                              const detect::Options& options,
                              std::uint64_t session = 0,
                              std::uint64_t epoch = 0);

}  // namespace glouvain::svc
