#include "paper/occupancy.hpp"

namespace glouvain::core {

OccupancyReport analyze_occupancy(const graph::Csr& graph,
                                  const BucketScheme& scheme) {
  OccupancyReport report;
  report.buckets.resize(scheme.num_buckets());
  for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
    report.buckets[b].bucket = b;
    report.buckets[b].lanes = scheme.lanes[b];
  }

  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const graph::EdgeIdx d = graph.degree(v);
    if (d == 0) continue;
    auto& bucket = report.buckets[scheme.bucket_of(d)];
    const graph::EdgeIdx rounds = (d + bucket.lanes - 1) / bucket.lanes;
    bucket.vertices += 1;
    bucket.edges += d;
    bucket.lane_slots += rounds * bucket.lanes;
  }

  graph::EdgeIdx total_edges = 0, total_slots = 0;
  for (auto& bucket : report.buckets) {
    if (bucket.lane_slots) {
      bucket.occupancy = static_cast<double>(bucket.edges) /
                         static_cast<double>(bucket.lane_slots);
    }
    total_edges += bucket.edges;
    total_slots += bucket.lane_slots;
  }
  report.overall = total_slots
                       ? static_cast<double>(total_edges) /
                             static_cast<double>(total_slots)
                       : 0;
  return report;
}

}  // namespace glouvain::core
