#include "graph/ops.hpp"

#include <algorithm>
#include <cmath>

#include "simt/thread_pool.hpp"

namespace glouvain::graph {

std::string validate(const Csr& graph) {
  const VertexId n = graph.num_vertices();
  auto offsets = graph.offsets();
  auto adj = graph.adjacency();
  auto weights = graph.edge_weights();

  if (offsets.size() != static_cast<std::size_t>(n) + 1) return "offsets size mismatch";
  if (offsets[0] != 0) return "offsets[0] != 0";
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      return "offsets not monotone at vertex " + std::to_string(v);
    }
  }
  if (adj.size() != offsets[n]) return "adjacency size mismatch";

  for (VertexId v = 0; v < n; ++v) {
    VertexId prev = 0;
    bool first = true;
    EdgeIdx loops = 0;
    for (EdgeIdx i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (adj[i] >= n) return "neighbor out of range at vertex " + std::to_string(v);
      if (!first && adj[i] <= prev) {
        return "row not strictly sorted (duplicate edge?) at vertex " + std::to_string(v);
      }
      if (!valid_weight(weights[i])) {
        return "non-positive or non-finite weight at vertex " + std::to_string(v);
      }
      if (adj[i] == v) ++loops;
      prev = adj[i];
      first = false;
    }
    if (loops > 1) return "multiple self-loops at vertex " + std::to_string(v);
  }

  // Symmetry: every arc (u, v, w) needs a matching (v, u, w).
  for (VertexId u = 0; u < n; ++u) {
    auto nbrs = graph.neighbors(u);
    auto ws = graph.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v == u) continue;
      auto back = graph.neighbors(v);
      auto it = std::lower_bound(back.begin(), back.end(), u);
      if (it == back.end() || *it != u) {
        return "missing reverse arc " + std::to_string(v) + "->" + std::to_string(u);
      }
      const std::size_t j = static_cast<std::size_t>(it - back.begin());
      if (std::abs(graph.weights(v)[j] - ws[i]) > 1e-9 * std::max(1.0, ws[i])) {
        return "asymmetric weight on edge " + std::to_string(u) + "-" + std::to_string(v);
      }
    }
  }
  return {};
}

DegreeStats degree_stats(const Csr& graph) {
  DegreeStats stats;
  const VertexId n = graph.num_vertices();
  if (n == 0) return stats;
  stats.min_degree = graph.degree(0);
  static constexpr EdgeIdx kEdges[] = {4, 8, 16, 32, 84, 319};
  stats.bucket_counts.assign(7, 0);
  std::uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const EdgeIdx d = graph.degree(v);
    stats.min_degree = std::min(stats.min_degree, d);
    stats.max_degree = std::max(stats.max_degree, d);
    total += d;
    std::size_t b = 0;
    while (b < 6 && d > kEdges[b]) ++b;
    stats.bucket_counts[b] += 1;
  }
  stats.mean_degree = static_cast<double>(total) / static_cast<double>(n);
  return stats;
}

Csr permute(const Csr& graph, const std::vector<VertexId>& perm) {
  const VertexId n = graph.num_vertices();
  std::vector<VertexId> inverse(n);
  for (VertexId v = 0; v < n; ++v) inverse[perm[v]] = v;

  std::vector<EdgeIdx> offsets(n + 1, 0);
  for (VertexId nv = 0; nv < n; ++nv) {
    offsets[nv + 1] = offsets[nv] + graph.degree(inverse[nv]);
  }
  std::vector<VertexId> adj(offsets[n]);
  std::vector<Weight> weights(offsets[n]);
  simt::ThreadPool::global().parallel_for(n, [&](std::size_t nv, unsigned) {
    const VertexId old = inverse[nv];
    auto nbrs = graph.neighbors(old);
    auto ws = graph.weights(old);
    std::vector<std::pair<VertexId, Weight>> row(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) row[i] = {perm[nbrs[i]], ws[i]};
    std::sort(row.begin(), row.end());
    const EdgeIdx base = offsets[nv];
    for (std::size_t i = 0; i < row.size(); ++i) {
      adj[base + i] = row[i].first;
      weights[base + i] = row[i].second;
    }
  });
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

std::uint64_t count_components(const Csr& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<VertexId> stack;
  std::uint64_t components = 0;
  for (VertexId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    ++components;
    seen[s] = 1;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId nb : graph.neighbors(v)) {
        if (!seen[nb]) {
          seen[nb] = 1;
          stack.push_back(nb);
        }
      }
    }
  }
  return components;
}

}  // namespace glouvain::graph
