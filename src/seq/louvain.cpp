#include "seq/louvain.hpp"

#include <optional>

#include "core/community_weights.hpp"
#include "core/levels.hpp"
#include "core/rows.hpp"
#include "metrics/partition.hpp"
#include "obs/recorder.hpp"
#include "util/timer.hpp"

namespace glouvain::seq {

namespace {

using graph::Community;
using graph::Csr;
using graph::VertexId;
using graph::Weight;

/// Modularity from maintained in/tot accumulators.
double modularity_from(const std::vector<Weight>& in,
                       const std::vector<Weight>& tot, Weight m2) {
  double q = 0;
  for (std::size_t c = 0; c < in.size(); ++c) {
    if (tot[c] > 0) q += in[c] / m2 - (tot[c] / m2) * (tot[c] / m2);
  }
  return q;
}

/// Strengths and self-loop weights, summed in row order exactly like
/// Csr::strength / Csr::loop_weight, so every storage yields the same
/// bits.
template <typename Rows>
void strengths_and_loops(Rows& rows, std::vector<Weight>& s,
                         std::vector<Weight>& l) {
  const VertexId n = rows.num_vertices();
  s.resize(n);
  l.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    const core::RowView r = rows.row(v, 0);
    Weight sum = 0;
    Weight loop = 0;
    for (std::uint32_t i = 0; i < r.deg; ++i) {
      sum += r.w[i];
      if (r.adj[i] == v) loop += r.w[i];
    }
    s[v] = sum;
    l[v] = loop;
  }
}

/// The shared phase body, templated over core's row sources (PlainRows
/// or ZRows, read on worker 0). The phase visits vertices in increasing
/// id order, so a ZRows cursor decodes sequentially (one cheap reseek
/// per sweep, back to row 0); decoded rows equal the plain arrays bit
/// for bit, so every downstream double matches the plain path.
/// A non-empty `seed` replaces the singleton bootstrap (in/tot are
/// accumulated from the seeded membership); a non-empty `active`
/// restricts the sweep to those vertices — everyone else keeps its
/// community but still participates in every gain term, so the
/// maintained modularity stays exact.
template <typename Rows>
PhaseResult phase_impl(Rows& rows, std::vector<Community>& community,
                       double threshold, int max_sweeps, obs::Recorder* rec,
                       std::span<const Community> seed,
                       std::span<const VertexId> active) {
  const VertexId n = rows.num_vertices();
  const Weight m2 = rows.total_weight();

  std::vector<Weight> strengths;
  std::vector<Weight> loops;
  strengths_and_loops(rows, strengths, loops);

  std::vector<Weight> tot;
  std::vector<Weight> in;
  if (seed.empty()) {
    community.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) community[v] = v;
    tot = strengths;  // one community per vertex
    in.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) in[v] = loops[v];
  } else {
    community.assign(seed.begin(), seed.end());
    tot.assign(n, 0);
    in.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      const Community c = community[v];
      tot[c] += strengths[v];
      Weight internal = loops[v];
      const core::RowView r = rows.row(v, 0);
      for (std::uint32_t i = 0; i < r.deg; ++i) {
        if (r.adj[i] != v && community[r.adj[i]] == c) internal += r.w[i];
      }
      in[c] += internal;  // each internal edge lands twice, once per end
    }
  }

  // The sequential "hash table".
  core::CommunityWeights neigh_weight(n, core::max_row_degree(rows));

  PhaseResult result;
  double current_q = modularity_from(in, tot, m2);
  const std::size_t sweep_size = active.empty() ? n : active.size();

  while (result.sweeps < max_sweeps) {
    ++result.sweeps;
    util::Timer sweep_timer;
    obs::Span sweep_span(rec, "modopt/sweep");
    bool moved = false;
    std::size_t moved_count = 0;

    for (std::size_t idx = 0; idx < sweep_size; ++idx) {
      const VertexId v = active.empty() ? static_cast<VertexId>(idx) : active[idx];
      const Community old_c = community[v];
      const Weight k = strengths[v];

      // Gather d_{v,c} for every adjacent community (self excluded).
      neigh_weight.add(rows.row(v, 0), v,
                       [&](VertexId u) { return community[u]; });

      const Weight d_old = neigh_weight[old_c];

      // Remove v from its community.
      tot[old_c] -= k;
      in[old_c] -= 2 * d_old + loops[v];

      // Best target: maximize d_vc - k * tot_c / m2; ties to lowest id;
      // staying put wins ties against moving (strict improvement only).
      Community best_c = old_c;
      double best_gain = d_old - k * tot[old_c] / m2;
      for (const Community c : neigh_weight.touched()) {
        if (c == old_c) continue;
        const double gain = neigh_weight[c] - k * tot[c] / m2;
        if (gain > best_gain + 1e-15 ||
            (gain > best_gain - 1e-15 && c < best_c)) {
          best_gain = gain;
          best_c = c;
        }
      }

      // Insert into the winner.
      const Weight d_best = neigh_weight[best_c];
      tot[best_c] += k;
      in[best_c] += 2 * d_best + loops[v];
      community[v] = best_c;
      if (best_c != old_c) {
        moved = true;
        ++moved_count;
      }

      neigh_weight.clear();
    }

    if (result.sweeps == 1) result.first_sweep_seconds = sweep_timer.seconds();
    if (rec && sweep_size > 0) {
      rec->count("modopt/moved_frac",
                 static_cast<double>(moved_count) /
                     static_cast<double>(sweep_size),
                 result.sweeps - 1);
    }

    const double new_q = modularity_from(in, tot, m2);
    const double gain = new_q - current_q;
    current_q = new_q;
    if (!moved || gain < threshold) break;
  }

  if (rec) rec->count("modopt/sweeps", result.sweeps);
  result.modularity = current_q;
  return result;
}

/// Seq's optimize and contract steps under core::climb_levels;
/// seed/active apply to level 0 only. Exactly one of `graph` / `z0` is
/// non-null: z0 selects the compressed level-0 path (cold start only),
/// after which the loop continues on the contracted plain Csr either
/// way.
detect::Result run_impl(const Csr* graph, const zg::ZCsr* z0,
                        const Config& config, obs::Recorder* rec,
                        std::span<const Community> seed,
                        std::span<const VertexId> active) {
  util::Timer total_timer;
  const core::LevelSize size0 =
      z0 ? core::LevelSize{z0->num_vertices(), z0->num_arcs()}
         : core::LevelSize{graph->num_vertices(), graph->num_arcs()};
  detect::Result result;
  result.community.resize(size0.vertices);
  for (VertexId v = 0; v < size0.vertices; ++v) result.community[v] = v;

  simt::ThreadPool one_thread(1);  // contracts inline on the caller
  Csr current;  // empty during level 0 of a compressed run
  std::optional<core::ZRows> zrows;  // level 0 of a compressed run only
  if (z0) {
    zrows.emplace(*z0, 1);
    core::count_storage(*z0, rec);
  } else {
    current = *graph;
  }
  std::vector<Community> phase_community;

  const auto optimize = [&](int level, double threshold) {
    obs::Span opt_span(rec, "modopt");
    const bool warm_level = level == 0 && !seed.empty();
    const auto level_seed = warm_level ? seed : std::span<const Community>{};
    const auto level_active = warm_level ? active : std::span<const VertexId>{};
    if (zrows && level == 0) {
      return phase_impl(*zrows, phase_community, threshold,
                        config.max_sweeps_per_level, rec, level_seed,
                        level_active);
    }
    core::PlainRows rows(current);
    return phase_impl(rows, phase_community, threshold,
                      config.max_sweeps_per_level, rec, level_seed,
                      level_active);
  };

  const auto contract = [&](int level) {
    obs::Span agg_span(rec, "aggregate");
    metrics::renumber(phase_community);
    result.community = metrics::flatten(result.community, phase_community);
    result.dendrogram.push_level(phase_community);
    current = zrows && level == 0
                  ? core::contract_reference(*zrows, phase_community, one_thread)
                  : core::contract_reference(core::PlainRows(current),
                                             phase_community, one_thread);
    return core::LevelSize{current.num_vertices(), current.num_arcs()};
  };

  core::climb_levels(config, size0, result, rec, optimize, contract);
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace

PhaseResult optimize_phase(const Csr& graph, std::vector<Community>& community,
                           double threshold, int max_sweeps,
                           obs::Recorder* rec) {
  core::PlainRows rows(graph);
  return phase_impl(rows, community, threshold, max_sweeps, rec, {}, {});
}

detect::Result louvain(const Csr& graph, const Config& config,
                       obs::Recorder* rec) {
  return run_impl(&graph, nullptr, config, rec, {}, {});
}

detect::Result louvain_z(const zg::ZCsr& z, const Config& config,
                         obs::Recorder* rec) {
  return run_impl(nullptr, &z, config, rec, {}, {});
}

detect::Result louvain_warm(const Csr& graph, std::span<const Community> seed,
                            std::span<const VertexId> active,
                            const Config& config, obs::Recorder* rec) {
  detect::check_warm_start(graph.num_vertices(), seed, active);
  return run_impl(&graph, nullptr, config, rec, seed, active);
}

}  // namespace glouvain::seq
