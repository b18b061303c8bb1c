// The one detection result every backend returns through the
// detect::Detector interface: community labels, modularity, per-level
// reports, dendrogram and timings, plus the device diagnostics that
// stay zero for backends that never touch a simt device (seq, plm).
// core::Result is an alias of this type, so the service cache and all
// call sites share one currency.
#pragma once

#include <cstdint>
#include <vector>

#include "core/common.hpp"
#include "metrics/dendrogram.hpp"

namespace glouvain::detect {

/// Diagnostics of the software SIMT device (zeroes for seq/plm).
struct DeviceStats {
  std::uint64_t shared_spills = 0;  ///< hash tables that overflowed the
                                    ///< shared arena into heap storage
  unsigned workers = 0;             ///< device worker threads used
};

struct Result {
  /// Final community of every ORIGINAL vertex (dense labels).
  std::vector<graph::Community> community;
  double modularity = 0;
  std::vector<LevelReport> levels;
  /// Full multi-level hierarchy: dendrogram.community_at_level(l) gives
  /// the clustering after l+1 levels; the last level equals
  /// `community`. (The paper's GPU code drops this for memory; see
  /// metrics/dendrogram.hpp.)
  metrics::Dendrogram dendrogram;
  double total_seconds = 0;
  /// Arcs entering level 0 divided by the time of level 0's first
  /// optimization sweep — the TEPS figure the paper reports against
  /// the Blue Gene/Q implementation. Every backend reports this one
  /// definition (core::climb_levels computes it).
  double first_phase_teps = 0;
  DeviceStats device;
};

}  // namespace glouvain::detect
