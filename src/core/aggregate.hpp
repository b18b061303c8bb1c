// Aggregation phase (Algorithm 3 + mergeCommunity) on the software
// SIMT device: contracts each community to one vertex of a new graph.
#pragma once

#include <span>
#include <vector>

#include "core/rows.hpp"
#include "graph/csr.hpp"
#include "simt/device.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::core {

class Workspace;

struct AggregationResult {
  graph::Csr contracted;
  /// old community label -> new vertex id (kInvalidVertex for labels
  /// with no members). Dense ids follow increasing old label, matching
  /// the newID prefix sum of Algorithm 3.
  std::vector<graph::VertexId> new_id;
  graph::VertexId num_communities = 0;
};

/// community[v] must be a label < graph.num_vertices() for every v.
/// Communities are binned by BucketScheme::paper_aggregation().
/// `recorder` (optional) receives the "aggregate" span tree — community
/// sizing, numbering, member ordering, binning, per-bucket merge
/// kernels, compaction — plus a bucket-occupancy counter.
AggregationResult aggregate(simt::Device& device, const graph::Csr& graph,
                            std::span<const graph::Community> community,
                            obs::Recorder* recorder = nullptr);

/// Allocation-free entry point: per-phase arrays come from `ws`'s slot
/// buffers, the contracted CSR's arrays from its recycling pool (feed
/// retired graphs back via Workspace::recycle). The overload above is
/// a thin wrapper over a throwaway Workspace.
AggregationResult aggregate(simt::Device& device, const graph::Csr& graph,
                            std::span<const graph::Community> community,
                            Workspace& ws, obs::Recorder* recorder = nullptr);

/// Compressed-storage aggregation: member rows are decoded per worker
/// instead of read from raw arrays; the contracted graph comes out as
/// a plain Csr either way (later levels are small enough to run
/// uncompressed). Results are bitwise-identical to the plain overload.
AggregationResult aggregate(simt::Device& device, ZRows& rows,
                            std::span<const graph::Community> community,
                            Workspace& ws, obs::Recorder* recorder = nullptr);

}  // namespace glouvain::core
