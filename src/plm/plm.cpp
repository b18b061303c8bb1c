#include "plm/plm.hpp"

#include <algorithm>
#include <cmath>

#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "obs/recorder.hpp"
#include "prim/scan.hpp"
#include "simt/atomics.hpp"
#include "simt/thread_pool.hpp"
#include "util/timer.hpp"

namespace glouvain::plm {

namespace {

using graph::Community;
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;

/// One worker's sparse accumulator (value + touched list), reset in
/// O(deg) after each vertex. Cache-line aligned: the touched list's
/// clear() and push_back write its header for every vertex.
struct alignas(64) Accumulator {
  std::vector<Weight> neigh;
  std::vector<Community> touched;
};

/// One modularity-optimization phase with immediate (asynchronous)
/// moves. Returns the number of sweeps.
int optimize_phase(const Csr& graph, std::vector<Community>& community,
                   double threshold, int max_sweeps, double* final_q,
                   obs::Recorder* rec) {
  const VertexId n = graph.num_vertices();
  const Weight m2 = graph.total_weight();
  auto& pool = simt::ThreadPool::global();

  community.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) community[v] = v;

  std::vector<Weight> strengths = graph.compute_strengths();
  std::vector<Weight> tot = strengths;
  std::vector<VertexId> com_size(n, 1);

  std::vector<Accumulator> acc(pool.size());
  for (Accumulator& a : acc) {
    a.neigh.assign(n, -1);
    a.touched.reserve(256);
  }

  double current_q = metrics::modularity(graph, community);
  int sweeps = 0;

  while (sweeps < max_sweeps) {
    ++sweeps;
    obs::Span sweep_span(rec, "modopt/sweep");

    pool.parallel_for(n, [&](std::size_t vi, unsigned worker) {
      const auto v = static_cast<VertexId>(vi);
      const Community old_c = simt::atomic_load(community[v]);
      const Weight k = strengths[v];

      auto& nw = acc[worker].neigh;
      auto& tc = acc[worker].touched;
      tc.clear();

      auto nbrs = graph.neighbors(v);
      auto ws = graph.weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] == v) continue;
        const Community c = simt::atomic_load(community[nbrs[i]]);
        if (nw[c] < 0) {
          nw[c] = 0;
          tc.push_back(c);
        }
        nw[c] += ws[i];
      }

      const Weight d_old = nw[old_c] < 0 ? 0 : nw[old_c];
      const Weight tot_old_without_v = simt::atomic_load(tot[old_c]) - k;

      Community best_c = old_c;
      double best_gain = d_old - k * tot_old_without_v / m2;
      const bool v_is_singleton = simt::atomic_load(com_size[old_c]) == 1;

      for (const Community c : tc) {
        if (c == old_c) continue;
        const double gain = nw[c] - k * simt::atomic_load(tot[c]) / m2;
        if (gain > best_gain + 1e-15 ||
            (gain > best_gain - 1e-15 && c < best_c)) {
          best_gain = gain;
          best_c = c;
        }
      }

      for (const Community c : tc) nw[c] = -1;

      // Singleton guard from [16]: a singleton may only join another
      // singleton with a smaller community id (breaks the two-vertex
      // swap cycle that can livelock simultaneous moves). The guard
      // vetoes the chosen move — the vertex stays put rather than
      // spilling into its second-best community, which with immediate
      // moves would cascade into over-merging.
      if (best_c != old_c && v_is_singleton && best_c > old_c &&
          simt::atomic_load(com_size[best_c]) == 1) {
        best_c = old_c;
      }

      if (best_c != old_c) {
        // Immediate move: commit to the shared arrays so later vertices
        // in this sweep observe it (the defining property of PLM).
        simt::atomic_add(tot[old_c], -k);
        simt::atomic_add(tot[best_c], k);
        simt::atomic_sub(com_size[old_c], VertexId{1});
        simt::atomic_add(com_size[best_c], VertexId{1});
        simt::atomic_store(community[v], best_c);
      }
    });

    const double new_q = metrics::modularity(graph, community);
    const double gain = new_q - current_q;
    current_q = new_q;
    if (gain < threshold) break;
  }

  if (rec) rec->count("modopt/sweeps", sweeps);
  if (final_q) *final_q = current_q;
  return sweeps;
}

/// Parallel contraction: counting-sort vertices by community, then one
/// task per community merges its members' neighbour lists.
Csr contract_parallel(const Csr& graph, const std::vector<Community>& community,
                      VertexId num_communities) {
  const VertexId n = graph.num_vertices();
  auto& pool = simt::ThreadPool::global();

  // Group members of each community.
  std::vector<EdgeIdx> size(num_communities, 0);
  for (VertexId v = 0; v < n; ++v) ++size[community[v]];
  std::vector<EdgeIdx> start(num_communities + 1, 0);
  start[num_communities] = prim::exclusive_scan(
      std::span<const EdgeIdx>(size),
      std::span<EdgeIdx>(start.data(), num_communities), pool);
  std::vector<EdgeIdx> cursor(start.begin(), start.begin() + num_communities);
  std::vector<VertexId> members(n);
  for (VertexId v = 0; v < n; ++v) members[cursor[community[v]]++] = v;

  // Merge each community's rows.
  std::vector<std::vector<std::pair<VertexId, Weight>>> rows(num_communities);
  pool.parallel_for(num_communities, [&](std::size_t c, unsigned) {
    std::vector<std::pair<VertexId, Weight>> acc;
    for (EdgeIdx i = start[c]; i < start[c + 1]; ++i) {
      const VertexId v = members[i];
      auto nbrs = graph.neighbors(v);
      auto ws = graph.weights(v);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        acc.emplace_back(community[nbrs[e]], ws[e]);
      }
    }
    std::sort(acc.begin(), acc.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    auto& row = rows[c];
    for (std::size_t i = 0; i < acc.size();) {
      const VertexId nb = acc[i].first;
      Weight w = 0;
      while (i < acc.size() && acc[i].first == nb) {
        w += acc[i].second;
        ++i;
      }
      row.emplace_back(nb, w);
    }
  });

  std::vector<EdgeIdx> degree(num_communities);
  for (VertexId c = 0; c < num_communities; ++c) degree[c] = rows[c].size();
  std::vector<EdgeIdx> offsets(num_communities + 1, 0);
  offsets[num_communities] = prim::exclusive_scan(
      std::span<const EdgeIdx>(degree),
      std::span<EdgeIdx>(offsets.data(), num_communities), pool);

  std::vector<VertexId> adj(offsets[num_communities]);
  std::vector<Weight> weights(offsets[num_communities]);
  pool.parallel_for(num_communities, [&](std::size_t c, unsigned) {
    EdgeIdx at = offsets[c];
    for (const auto& [nb, w] : rows[c]) {
      adj[at] = nb;
      weights[at] = w;
      ++at;
    }
  });
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

}  // namespace

LouvainResult louvain(const Csr& graph, const Config& config,
                      obs::Recorder* rec) {
  util::Timer total_timer;
  LouvainResult result;
  result.community.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) result.community[v] = v;

  Csr current = graph;
  double prev_q = -1.0;

  for (int level = 0; level < config.max_levels; ++level) {
    if (rec) rec->set_level(level);
    LevelReport report;
    report.vertices = current.num_vertices();
    report.arcs = current.num_arcs();
    report.modularity_before = prev_q < -0.5 ? 0 : prev_q;

    const double threshold = config.thresholds.threshold_for(current.num_vertices());

    util::Timer opt_timer;
    std::vector<Community> phase_community;
    double q = 0;
    {
      obs::Span opt_span(rec, "modopt");
      report.iterations = optimize_phase(current, phase_community, threshold,
                                         config.max_sweeps_per_level, &q, rec);
    }
    report.optimize_seconds = opt_timer.seconds();
    report.modularity_after = q;

    if (level == 0) {
      result.first_phase_teps = report.optimize_seconds > 0
          ? static_cast<double>(current.num_arcs()) * report.iterations /
                report.optimize_seconds
          : 0;
    }

    const bool converged = prev_q >= -0.5 && (q - prev_q) < config.thresholds.t_final;

    util::Timer agg_timer;
    Csr contracted;
    {
      obs::Span agg_span(rec, "aggregate");
      const Community num_communities = metrics::renumber(phase_community);
      result.community = metrics::flatten(result.community, phase_community);
      result.dendrogram.push_level(phase_community);
      contracted = contract_parallel(current, phase_community, num_communities);
    }
    report.aggregate_seconds = agg_timer.seconds();
    result.levels.push_back(report);
    if (rec) {
      rec->count("level/vertices", static_cast<double>(report.vertices));
      rec->count("level/arcs", static_cast<double>(report.arcs));
    }

    const bool shrunk = contracted.num_vertices() < current.num_vertices();
    prev_q = q;
    current = std::move(contracted);
    if (converged || !shrunk) break;
  }
  if (rec) rec->set_level(-1);

  result.modularity = prev_q;
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace glouvain::plm
