#include "core/modopt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "check/check.hpp"
#include "core/buckets.hpp"
#include "core/community_weights.hpp"
#include "core/rows.hpp"
#include "core/workspace.hpp"
#include "core/move_kernels.hpp"
#include "obs/recorder.hpp"
#include "prim/reduce.hpp"
#include "simt/atomics.hpp"
#include "simt/vector_ops.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace glouvain::core {

namespace {

using graph::Community;
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;

struct CommitResult {
  double gain = 0;          ///< accumulated predicted modularity gain
  std::size_t moved = 0;    ///< vertices that changed community

  CommitResult& operator+=(const CommitResult& o) noexcept {
    gain += o.gain;
    moved += o.moved;
    return *this;
  }
};

/// Commit newComm for the vertices of one bucket and update a_c and the
/// community sizes incrementally (equivalent to the paper's "recompute
/// a_c in parallel", Algorithm 1 lines 8-11, but O(bucket) not O(n)).
/// The gain and moved sums are chunk-ordered partials drawn from the
/// workspace scratch: no heap traffic, no shared accumulator line.
CommitResult commit_moves(simt::Device& device, PhaseState& state,
                          std::span<const VertexId> vertices, Workspace& ws) {
  return prim::reduce(
      vertices.size(),
      [&](std::size_t begin, std::size_t end, unsigned) {
        CommitResult part;
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId v = vertices[i];
          const Community to = state.new_comm[v];
          const Community from = state.community[v];
          if (to == from) continue;
          const Weight k = state.strengths[v];
          simt::atomic_add(state.tot[from], -k);
          simt::atomic_add(state.tot[to], k);
          simt::atomic_sub(state.com_size[from], VertexId{1});
          simt::atomic_add(state.com_size[to], VertexId{1});
          state.community[v] = to;
          part.gain += state.move_gain[v];
          ++part.moved;
        }
        return part;
      },
      ws.scratch(), device.pool());
}

}  // namespace

namespace {

/// The one PhaseState load: a row-order pass that sums k_i and the
/// loop weight exactly as Csr::strength / Csr::loop_weight do (decoded
/// rows equal the plain arrays bit for bit), with every vertex its own
/// community.
template <typename Rows>
void load_singletons(PhaseState& st, Rows& rows, simt::Device& device) {
  const VertexId n = rows.num_vertices();
  st.strengths.resize(n);
  st.loops.resize(n);
  st.community.resize(n);
  st.new_comm.resize(n);
  st.tot.resize(n);
  st.com_size.resize(n);
  st.move_gain.resize(n);
  device.for_each_worker(n, [&](std::size_t v, unsigned worker) {
    const auto vid = static_cast<VertexId>(v);
    const RowView r = rows.row(vid, worker);
    Weight s = 0;
    Weight loop = 0;
    for (std::uint32_t i = 0; i < r.deg; ++i) {
      s += r.w[i];
      if (r.adj[i] == vid) loop += r.w[i];
    }
    st.strengths[v] = s;
    st.loops[v] = loop;
    st.community[v] = vid;
    st.new_comm[v] = vid;
    st.tot[v] = s;
    st.com_size[v] = 1;
    st.move_gain[v] = 0;
  });
}

}  // namespace

void PhaseState::reset(const Csr& graph, simt::Device& device) {
  PlainRows rows(graph);
  load_singletons(*this, rows, device);
}

void PhaseState::reset(ZRows& rows, simt::Device& device) {
  load_singletons(*this, rows, device);
}

void PhaseState::reset_from(const Csr& graph, simt::Device& device,
                            std::span<const Community> seed) {
  reset(graph, device);
  reseed(device, seed);
}

void PhaseState::reseed(simt::Device& device,
                        std::span<const Community> seed) {
  const std::size_t n = strengths.size();
  assert(seed.size() == n);  // sized by a prior reset over this graph
  device.for_each(n, [&](std::size_t v) {
    assert(seed[v] < n);
    community[v] = seed[v];
    new_comm[v] = seed[v];
    tot[v] = 0;
    com_size[v] = 0;
    move_gain[v] = 0;
  });
  device.for_each(n, [&](std::size_t v) {
    simt::atomic_add(tot[seed[v]], strengths[v]);
    simt::atomic_add(com_size[seed[v]], VertexId{1});
  });
}

namespace {

/// in_c and tot_c^2 summed over one chunk of vertices.
struct QSums {
  Weight in = 0;
  Weight tot_sq = 0;

  QSums& operator+=(const QSums& o) noexcept {
    in += o.in;
    tot_sq += o.tot_sq;
    return *this;
  }
};

template <typename Rows>
double device_modularity_impl(simt::Device& device, Rows& rows,
                              const std::vector<Community>& community,
                              const std::vector<Weight>& tot,
                              prim::Scratch& scratch) {
  const Weight m2 = rows.total_weight();
  // The vector backend gathers + mask-sums each row's internal weight
  // (re-associated sum — permitted there, not on the bitwise-stable
  // scalar backend). Under the checker the scalar loop runs so its
  // plain reads stay visible.
  const bool vec_rows =
      device.backend() == simt::Backend::kVector && !check::enabled();
  const QSums q = prim::reduce(
      rows.num_vertices(),
      [&](std::size_t begin, std::size_t end, unsigned worker) {
        QSums part;
        for (std::size_t vi = begin; vi < end; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          const Community c = community[v];
          const RowView r = rows.row(v, worker);
          if (vec_rows) {
            part.in += simt::vec::row_internal_weight(r.adj, r.w, r.deg,
                                                      community.data(), c);
          } else {
            Weight internal = 0;
            for (std::uint32_t i = 0; i < r.deg; ++i) {
              if (community[r.adj[i]] == c) internal += r.w[i];
            }
            part.in += internal;
          }
          // Each community's tot is summed once by its representative
          // slot: slot v holds tot[v] which is nonzero only for live
          // communities.
          part.tot_sq += tot[v] * tot[v];
        }
        return part;
      },
      scratch, device.pool());
  return q.in / m2 - q.tot_sq / (m2 * m2);
}

}  // namespace

double device_modularity(simt::Device& device, const Csr& graph,
                         const std::vector<Community>& community,
                         const std::vector<Weight>& tot, Workspace& ws) {
  if (graph.total_weight() <= 0) return 0;
  PlainRows rows(graph);
  return device_modularity_impl(device, rows, community, tot, ws.scratch());
}

double device_modularity(simt::Device& device, ZRows& rows,
                         const std::vector<Community>& community,
                         const std::vector<Weight>& tot, Workspace& ws) {
  if (rows.total_weight() <= 0) return 0;
  return device_modularity_impl(device, rows, community, tot, ws.scratch());
}

namespace {

template <typename Rows>
PhaseResult optimize_phase_impl(simt::Device& device, Rows& rows,
                                const Config& config, PhaseState& state,
                                std::span<const VertexId> active,
                                double threshold, Workspace& ws,
                                obs::Recorder* rec) {
  // A workspace is single-threaded state: two concurrent phases on one
  // ws (e.g. an svc job-routing bug) would silently corrupt buffers.
  check::WorkspaceGuard ws_guard(&ws);
  const VertexId n = rows.num_vertices();
  const Weight m2 = rows.total_weight();
  PhaseResult result;
  if (n == 0 || m2 <= 0) return result;
  obs::Span phase_span(rec, "modopt");
  const Workspace::Counters ws_since = ws.counters();

  // An empty subset means the classic full phase over every vertex.
  if (active.empty()) {
    auto all = ws.buffer<VertexId>(Workspace::Slot::kModoptActive, n);
    device.for_each(n, [&](std::size_t v) { all[v] = static_cast<VertexId>(v); });
    active = {all.data(), all.size()};
  }
  const std::size_t num_active = active.size();

  // Every vertex above the register path sums its neighbourhood in its
  // worker's accumulator (DESIGN §5.10), whose touched list the largest
  // active degree sizes. A phase with no such vertex, such as a road
  // lattice's level 0, takes none.
  const prim::Max<std::uint32_t> max_degree = prim::reduce(
      num_active,
      [&](std::size_t begin, std::size_t end, unsigned) {
        prim::Max<std::uint32_t> part;
        for (std::size_t i = begin; i < end; ++i) {
          part.value = std::max(part.value, rows.degree(active[i]));
        }
        return part;
      },
      ws.scratch(), device.pool());
  const std::span<CommunityWeights> acc =
      max_degree.value > detail::kSmallMoveDegree
          ? ws.accumulators(device.workers(), n, max_degree.value)
          : std::span<CommunityWeights>();

  const BucketScheme& scheme = config.modopt_buckets;
  // Sub-round classes: under the bucketed update each degree bucket
  // commits in `subrounds` groups, a vertex's group being a hash of its
  // id (Config::commit_subrounds) — the stand-in for the graph coloring
  // of [16] (DESIGN.md §6.1).
  const unsigned subrounds = config.update == UpdateStrategy::Bucketed
                                 ? std::max(1u, config.commit_subrounds)
                                 : 1u;
  // Degrees are fixed within a phase, so one binning serves every sweep
  // (the pseudocode re-partitions per sweep; the result is identical).
  // One counting sort groups subset positions by (degree bucket,
  // sub-round class), then the positions map back to vertex ids.
  Binned& binned = ws.modopt_binned();
  {
    obs::Span span(rec, "modopt/binning");
    bin_by_key_into(
        num_active, scheme,
        [&](VertexId i) { return rows.degree(active[i]); }, subrounds,
        [&](VertexId i) {
          return static_cast<unsigned>(util::hash64(active[i]) % subrounds);
        },
        binned, ws.scratch(), device.pool());
  }
  device.for_each(num_active,
                  [&](std::size_t i) { binned.order[i] = active[binned.order[i]]; });
  if (rec) {
    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      rec->count("modopt/bucket_occupancy",
                 static_cast<double>(binned.bucket(b).size()),
                 static_cast<std::int64_t>(b));
    }
  }
  // One interned name per degree-bucket kernel so the exporters can
  // break sweep time down the way Figure 6 does (built only when a
  // recorder is attached — the disabled path allocates nothing).
  std::vector<std::string> bucket_names;
  if (rec) {
    bucket_names.resize(scheme.num_buckets());
    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      bucket_names[b] = "modopt/bucket" + std::to_string(b);
    }
  }

  const auto eval_q = [&] {
    return device_modularity_impl(device, rows, state.community, state.tot,
                                  ws.scratch());
  };
  double current_q = 0;
  if (config.eval_phase_modularity) {
    obs::Span span(rec, "modopt/modularity");
    current_q = eval_q();
  }
  // True while current_q is the exact modularity of the live partition
  // (no commit moved a vertex since it was evaluated); lets the final
  // report reuse the last in-loop evaluation instead of paying one
  // more O(|E|) pass.
  bool q_fresh = config.eval_phase_modularity;

  while (result.sweeps < config.max_sweeps_per_level) {
    ++result.sweeps;
    util::Timer sweep_timer;
    obs::Span sweep_span(rec, "modopt/sweep");
    double sweep_gain = 0;
    std::size_t sweep_moved = 0;

    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      // Heaviest bucket: one task per dispatch so the desc-by-degree
      // order load-balances (paper: interleaved assignment to blocks).
      const std::size_t grain = b >= scheme.global_from ? 1 : 0;

      for (unsigned s = 0; s < subrounds; ++s) {
        const std::span<const VertexId> group_vertices =
            binned.group(b * subrounds + s);
        if (group_vertices.empty()) continue;

        {
          obs::Span kernel_span(
              rec, rec ? std::string_view(bucket_names[b]) : std::string_view());
          check::KernelScope kernel_scope("modopt/bucket", b);
          device.launch(group_vertices.size(), grain, [&](simt::TaskContext& ctx) {
            const VertexId v = group_vertices[ctx.task()];
            const std::uint32_t deg = rows.degree(v);
            // Binning contract: each bucket commits before the next one
            // decides, so a vertex above its bucket's bound would commit
            // with the wrong degree class.
            if (b < scheme.bounds.size()) {
              check::contract(deg <= scheme.bounds[b],
                              "modopt: vertex degree exceeds its bucket bound");
            }
            if (deg == 0) {
              check::note_plain_write(&state.new_comm[v]);
              state.new_comm[v] = state.community[v];
              check::note_plain_write(&state.move_gain[v]);
              state.move_gain[v] = 0;
              return;
            }
            // Degrees up to kSmallMoveDegree decide in registers.
            if (deg <= detail::kSmallMoveDegree) {
              detail::compute_move_small(rows, ctx.worker(), state, m2, v);
              return;
            }
            detail::compute_move_dense(rows, ctx.worker(), state, m2, v,
                                       acc[ctx.worker()]);
          });
        }

        if (config.update == UpdateStrategy::Bucketed) {
          obs::Span commit_span(rec, "modopt/commit");
          const CommitResult commit =
              commit_moves(device, state, group_vertices, ws);
          sweep_gain += commit.gain;
          sweep_moved += commit.moved;
        }
      }
    }

    if (config.update == UpdateStrategy::Relaxed) {
      obs::Span commit_span(rec, "modopt/commit");
      const CommitResult commit = commit_moves(
          device, state, std::span<const VertexId>(binned.order), ws);
      sweep_gain += commit.gain;
      sweep_moved += commit.moved;
    }

    if (sweep_moved > 0) q_fresh = false;
    if (result.sweeps == 1) result.first_sweep_seconds = sweep_timer.seconds();
    if (rec) {
      rec->count("modopt/moved_frac",
                 static_cast<double>(sweep_moved) /
                     static_cast<double>(num_active),
                 result.sweeps - 1);
    }

    // Algorithm 1 line 12: repeat until the accumulated modularity gain
    // of a sweep drops below the threshold. The cheap accumulated
    // predicted gain prunes first (it upper-bounds progress: every
    // committed move predicted a positive gain); only when it is still
    // above threshold is the exact modularity evaluated, which also
    // catches oscillation (real gain <= 0 while predictions stay
    // positive).
    if (sweep_gain < threshold) break;
    if (!config.eval_phase_modularity) continue;
    obs::Span q_span(rec, "modopt/modularity");
    const double new_q = eval_q();
    q_fresh = true;
    if (new_q - current_q < threshold) {
      current_q = new_q;
      break;
    }
    current_q = new_q;
  }

  if (rec) rec->count("modopt/sweeps", result.sweeps);
  if (q_fresh || !config.eval_phase_modularity) {
    result.modularity = current_q;
  } else {
    obs::Span final_q_span(rec, "modopt/modularity");
    result.modularity = eval_q();
  }
  ws.emit(rec, "modopt", ws_since);
  return result;
}

}  // namespace

PhaseResult optimize_phase(simt::Device& device, const Csr& graph,
                           const Config& config, PhaseState& state,
                           std::span<const VertexId> active,
                           double threshold, Workspace& ws,
                           obs::Recorder* rec) {
  PlainRows rows(graph);
  return optimize_phase_impl(device, rows, config, state, active, threshold,
                             ws, rec);
}

PhaseResult optimize_phase(simt::Device& device, ZRows& rows,
                           const Config& config, PhaseState& state,
                           std::span<const VertexId> active,
                           double threshold, Workspace& ws,
                           obs::Recorder* rec) {
  return optimize_phase_impl(device, rows, config, state, active, threshold,
                             ws, rec);
}

}  // namespace glouvain::core
