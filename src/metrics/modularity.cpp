#include "metrics/modularity.hpp"

#include "prim/reduce.hpp"

namespace glouvain::metrics {

std::vector<graph::Weight> community_totals(
    const graph::Csr& graph, std::span<const graph::Community> community) {
  const graph::VertexId n = graph.num_vertices();
  std::vector<graph::Weight> tot(n, 0);
  // Sequential accumulate per worker then merge would need n-sized
  // buffers per worker; a simple serial loop is O(n) and cheap next to
  // the O(|E|) modularity pass.
  for (graph::VertexId v = 0; v < n; ++v) {
    tot[community[v]] += graph.strength(v);
  }
  return tot;
}

double modularity(const graph::Csr& graph,
                  std::span<const graph::Community> community) {
  const graph::VertexId n = graph.num_vertices();
  const graph::Weight m2 = graph.total_weight();
  if (m2 <= 0) return 0;

  const graph::Weight in_total = prim::reduce(
      n, [&](std::size_t begin, std::size_t end, unsigned) {
        graph::Weight part = 0;
        for (std::size_t vi = begin; vi < end; ++vi) {
          const auto v = static_cast<graph::VertexId>(vi);
          const graph::Community c = community[v];
          auto nbrs = graph.neighbors(v);
          auto ws = graph.weights(v);
          graph::Weight internal = 0;
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            if (community[nbrs[i]] == c) internal += ws[i];
          }
          part += internal;
        }
        return part;
      });

  const std::vector<graph::Weight> tot = community_totals(graph, community);
  graph::Weight tot_sq = 0;
  for (auto t : tot) tot_sq += t * t;

  return in_total / m2 - tot_sq / (m2 * m2);
}

double move_gain(const graph::Csr& graph,
                 std::span<const graph::Community> community,
                 std::span<const graph::Weight> community_total,
                 std::span<const graph::Weight> strengths,
                 graph::VertexId v, graph::Community target) {
  const graph::Community current = community[v];
  if (target == current) return 0;
  const graph::Weight m2 = graph.total_weight();
  const graph::Weight k = strengths[v];

  graph::Weight d_cur = 0;  // weight from v to C(v) \ {v}
  graph::Weight d_tgt = 0;  // weight from v to target
  auto nbrs = graph.neighbors(v);
  auto ws = graph.weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == v) continue;  // self-loop travels with v
    const graph::Community c = community[nbrs[i]];
    if (c == current) d_cur += ws[i];
    else if (c == target) d_tgt += ws[i];
  }
  const graph::Weight tot_cur = community_total[current] - k;  // without v
  const graph::Weight tot_tgt = community_total[target];
  return 2.0 * (d_tgt - d_cur) / m2 -
         2.0 * k * (tot_tgt - tot_cur) / (m2 * m2);
}

}  // namespace glouvain::metrics
