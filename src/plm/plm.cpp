#include "plm/plm.hpp"

#include "core/community_weights.hpp"
#include "core/levels.hpp"
#include "core/rows.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition.hpp"
#include "obs/recorder.hpp"
#include "simt/atomics.hpp"
#include "simt/thread_pool.hpp"
#include "util/timer.hpp"

namespace glouvain::plm {

namespace {

using graph::Community;
using graph::Csr;
using graph::VertexId;
using graph::Weight;

/// One modularity-optimization phase with immediate (asynchronous)
/// moves.
PhaseResult optimize_phase(const Csr& graph, std::vector<Community>& community,
                           double threshold, int max_sweeps,
                           obs::Recorder* rec) {
  const VertexId n = graph.num_vertices();
  const Weight m2 = graph.total_weight();
  auto& pool = simt::ThreadPool::global();

  community.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) community[v] = v;

  std::vector<Weight> strengths = graph.compute_strengths();
  std::vector<Weight> tot = strengths;
  std::vector<VertexId> com_size(n, 1);

  const core::PlainRows rows(graph);
  const std::size_t max_degree = core::max_row_degree(rows);
  std::vector<core::CommunityWeights> acc;
  for (unsigned w = 0; w < pool.size(); ++w) acc.emplace_back(n, max_degree);

  PhaseResult result;
  double current_q = metrics::modularity(graph, community);

  while (result.sweeps < max_sweeps) {
    ++result.sweeps;
    util::Timer sweep_timer;
    obs::Span sweep_span(rec, "modopt/sweep");

    pool.parallel_for(n, [&](std::size_t vi, unsigned worker) {
      const auto v = static_cast<VertexId>(vi);
      const Community old_c = simt::atomic_load(community[v]);
      const Weight k = strengths[v];

      core::CommunityWeights& nw = acc[worker];
      nw.add(rows.row(v, worker), v,
             [&](VertexId u) { return simt::atomic_load(community[u]); });

      const Weight d_old = nw[old_c];
      const Weight tot_old_without_v = simt::atomic_load(tot[old_c]) - k;

      Community best_c = old_c;
      double best_gain = d_old - k * tot_old_without_v / m2;
      const bool v_is_singleton = simt::atomic_load(com_size[old_c]) == 1;

      nw.drain([&](Community c, Weight w) {
        if (c == old_c) return;
        const double gain = w - k * simt::atomic_load(tot[c]) / m2;
        if (gain > best_gain + 1e-15 ||
            (gain > best_gain - 1e-15 && c < best_c)) {
          best_gain = gain;
          best_c = c;
        }
      });

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
    if (result.sweeps == 1) result.first_sweep_seconds = sweep_timer.seconds();

    const double new_q = metrics::modularity(graph, community);
    const double gain = new_q - current_q;
    current_q = new_q;
    if (gain < threshold) break;
  }

  if (rec) rec->count("modopt/sweeps", result.sweeps);
  result.modularity = current_q;
  return result;
}

}  // namespace

detect::Result louvain(const Csr& graph, const Config& config,
                       obs::Recorder* rec) {
  util::Timer total_timer;
  detect::Result result;
  result.community.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) result.community[v] = v;

  Csr current = graph;
  std::vector<Community> phase_community;
  core::climb_levels(
      config, {current.num_vertices(), current.num_arcs()}, result, rec,
      [&](int, double threshold) {
        obs::Span opt_span(rec, "modopt");
        return optimize_phase(current, phase_community, threshold,
                              config.max_sweeps_per_level, rec);
      },
      [&](int) {
        obs::Span agg_span(rec, "aggregate");
        metrics::renumber(phase_community);
        result.community = metrics::flatten(result.community, phase_community);
        result.dendrogram.push_level(phase_community);
        current = core::contract_reference(core::PlainRows(current),
                                           phase_community,
                                           simt::ThreadPool::global());
        return core::LevelSize{current.num_vertices(), current.num_arcs()};
      });

  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace glouvain::plm
