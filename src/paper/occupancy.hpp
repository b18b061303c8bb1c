// Static warp-occupancy analysis of the degree-bucketed kernel — the
// reproduction of the paper's §5 profiling claim: "on UK-2002, on
// average 62.5% of the threads in a warp are active whenever the warp
// is selected for execution".
//
// A vertex of degree d processed by L lanes issues ceil(d/L) rounds of
// the edge loop; the last round has d mod L active lanes (all L when it
// divides evenly). Occupancy = total active lane-slots / total issued
// lane-slots, exactly what the profiler counts for the hashing loop.
// The analysis is static (degree distribution + bucket scheme), so it
// isolates the divergence the BUCKETING itself causes, independent of
// memory latency. It models the paper's lane-group kernel, which no
// production kernel runs: core sums in per-worker accumulators.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "graph/csr.hpp"

namespace glouvain::core {

struct BucketOccupancy {
  std::size_t bucket = 0;
  unsigned lanes = 0;
  graph::VertexId vertices = 0;
  graph::EdgeIdx edges = 0;        ///< active lane-slots (= degree sum)
  graph::EdgeIdx lane_slots = 0;   ///< issued lane-slots
  double occupancy = 0;            ///< edges / lane_slots
};

struct OccupancyReport {
  std::vector<BucketOccupancy> buckets;
  double overall = 0;  ///< edge-weighted across buckets
};

/// Occupancy of the hashing loop of computeMove under `scheme`.
OccupancyReport analyze_occupancy(const graph::Csr& graph,
                                  const BucketScheme& scheme);

}  // namespace glouvain::core
