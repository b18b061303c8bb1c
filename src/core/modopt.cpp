#include "core/modopt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "check/check.hpp"
#include "core/buckets.hpp"
#include "core/rows.hpp"
#include "core/workspace.hpp"
#include "core/hash_map.hpp"
#include "obs/recorder.hpp"
#include "prim/reduce.hpp"
#include "simt/atomics.hpp"
#include "simt/kernel_ops.hpp"
#include "simt/lane_group.hpp"
#include "simt/lane_vec.hpp"
#include "util/primes.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace glouvain::core {

namespace {

using graph::Community;
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;

/// The warp collectives (better(), the argmax identity, the slot sort,
/// the hashing and scan loops) live in simt/kernel_ops.hpp now, single-
/// sourced over the scalar and vector lane substrates. The aliases keep
/// this file reading like Algorithm 2.
using Candidate = simt::BestComm;
constexpr Candidate kEmptyCandidate = simt::kEmptyBest;
using simt::better;

/// The computeMove kernel body (Algorithm 2) for one vertex. Rows is
/// the storage seam (PlainRows or ZRows); Table is the task-local
/// hash map; Group is LaneGroup, a FixedLaneGroup specialization, or a
/// VectorLaneGroup. `touched` is caller scratch for >= capacity slot
/// indices.
template <typename Rows, typename Group, typename Table>
void compute_move(Rows& rows, unsigned worker, PhaseState& state, Weight m2,
                  VertexId v, Group group, Table& table,
                  std::span<std::uint32_t> touched) {
  const RowView r = rows.row(v, worker);
  const Community old_c = state.community[v];
  const Weight k = state.strengths[v];
  const double inv_m2 = 1.0 / m2;

  // --- Lines 2-13: lane-parallel hashing of the neighbourhood into
  // the task-local table (the self-loop contributes equally to every
  // candidate, so it is skipped). Claimed slots are recorded so a
  // sparse table can be scanned compactly below.
  const std::uint32_t num_touched = simt::hash_row_claim(
      group, r, v, state.community.data(), table, touched.data());

  // --- Line 14: scan the table slots and reduce to the best
  // destination. The gain term per candidate community c (v removed
  // from its own community first) is
  //   e_{v->c} - k_v * a_c / 2m,
  // the variable part of Eq. (2).
  Weight d_old = 0;  // e_{v->C(v)\{v}}, collected during the slot scan
  const Candidate best =
      simt::scan_best(group, table, touched.first(num_touched), old_c,
                      state.tot.data(), k, inv_m2, d_old);

  // --- Lines 15-18: move only on strictly positive modularity gain
  // relative to staying (e_{v->C(v)\{v}} enters both sides of Eq. (2),
  // here it appears only in the stay gain).
  const double stay_gain =
      d_old - k * (simt::atomic_load(state.tot[old_c]) - k) * inv_m2;
  bool move = best.comm != graph::kInvalidCommunity && best.gain > stay_gain + 1e-15;
  // Singleton-to-singleton guard from [16] (paper §4): a vertex that is
  // a community by itself may only join another singleton community if
  // that community's id is smaller. The guard vetoes the chosen move
  // (the vertex waits a sweep) rather than redirecting it to a
  // second-best target, which would cascade into over-merging.
  if (move && simt::atomic_load(state.com_size[old_c]) == 1 &&
      best.comm > old_c &&
      simt::atomic_load(state.com_size[best.comm]) == 1) {
    move = false;
  }
  check::note_plain_write(&state.new_comm[v]);
  state.new_comm[v] = move ? best.comm : old_c;
  // Predicted dQ of this move against the snapshot (exact if no other
  // vertex moves concurrently); drives the sweep stopping rule.
  check::note_plain_write(&state.move_gain[v]);
  state.move_gain[v] = move ? 2.0 * (best.gain - stay_gain) / m2 : 0.0;
}

/// compute_move specialized for degree-1 vertices: the table would hold
/// at most one candidate, so the decision closes form and the arena
/// allocation, table clear and slot scan all drop out. Every
/// floating-point expression matches the general kernel operand for
/// operand (including the better() fold, for NaN behaviour), so the
/// chosen move is bitwise identical.
template <typename Rows>
void compute_move_deg1(Rows& rows, unsigned worker, PhaseState& state,
                       Weight m2, VertexId v) {
  const RowView r = rows.row(v, worker);
  const Community old_c = state.community[v];
  const Weight k = state.strengths[v];
  const double inv_m2 = 1.0 / m2;
  const VertexId j = r.adj[0];

  Weight d_old = 0;
  Candidate best = kEmptyCandidate;
  if (j != v) {  // a pure self-loop vertex has no candidate
    const Community c = simt::atomic_load(state.community[j]);
    const Weight w = r.w[0];
    if (c == old_c) {
      d_old = w;
    } else {
      const double gain = w - k * simt::atomic_load(state.tot[c]) * inv_m2;
      best = better(kEmptyCandidate, {gain, c});
    }
  }

  const double stay_gain =
      d_old - k * (simt::atomic_load(state.tot[old_c]) - k) * inv_m2;
  bool move = best.comm != graph::kInvalidCommunity && best.gain > stay_gain + 1e-15;
  if (move && simt::atomic_load(state.com_size[old_c]) == 1 &&
      best.comm > old_c &&
      simt::atomic_load(state.com_size[best.comm]) == 1) {
    move = false;
  }
  check::note_plain_write(&state.new_comm[v]);
  state.new_comm[v] = move ? best.comm : old_c;
  check::note_plain_write(&state.move_gain[v]);
  state.move_gain[v] = move ? 2.0 * (best.gain - stay_gain) / m2 : 0.0;
}

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

void PhaseState::reset(const Csr& graph, simt::Device& device) {
  const VertexId n = graph.num_vertices();
  strengths.resize(n);
  loops.resize(n);
  community.resize(n);
  new_comm.resize(n);
  tot.resize(n);
  com_size.resize(n);
  move_gain.resize(n);
  device.for_each(n, [&](std::size_t v) {
    const auto vid = static_cast<VertexId>(v);
    strengths[v] = graph.strength(vid);
    loops[v] = graph.loop_weight(vid);
    community[v] = vid;
    new_comm[v] = vid;
    tot[v] = strengths[v];
    com_size[v] = 1;
    move_gain[v] = 0;
  });
}

void PhaseState::reset_from(const Csr& graph, simt::Device& device,
                            std::span<const Community> seed) {
  const VertexId n = graph.num_vertices();
  assert(seed.size() == n);
  strengths.resize(n);
  loops.resize(n);
  community.resize(n);
  new_comm.resize(n);
  tot.resize(n);
  com_size.resize(n);
  move_gain.resize(n);
  device.for_each(n, [&](std::size_t v) {
    const auto vid = static_cast<VertexId>(v);
    assert(seed[v] < n);
    strengths[v] = graph.strength(vid);
    loops[v] = graph.loop_weight(vid);
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

void PhaseState::reset(ZRows& rows, simt::Device& device) {
  const VertexId n = rows.num_vertices();
  strengths.resize(n);
  loops.resize(n);
  community.resize(n);
  new_comm.resize(n);
  tot.resize(n);
  com_size.resize(n);
  move_gain.resize(n);
  device.for_each_worker(n, [&](std::size_t v, unsigned worker) {
    const auto vid = static_cast<VertexId>(v);
    const RowView r = rows.row(vid, worker);
    // Same row-order summation as Csr::strength/loop_weight: the
    // decoded weights are bitwise-equal, so k_i and the loop weight
    // match the plain path exactly.
    Weight s = 0;
    Weight loop = 0;
    for (std::uint32_t i = 0; i < r.deg; ++i) {
      s += r.w[i];
      if (r.adj[i] == vid) loop += r.w[i];
    }
    strengths[v] = s;
    loops[v] = loop;
    community[v] = vid;
    new_comm[v] = vid;
    tot[v] = s;
    com_size[v] = 1;
    move_gain[v] = 0;
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
                         const std::vector<Weight>& tot) {
  if (graph.total_weight() <= 0) return 0;
  PlainRows rows(graph);
  prim::Scratch scratch;
  return device_modularity_impl(device, rows, community, tot, scratch);
}

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

  // Vector lane substrate? Resolved once per phase from the device.
  // Under the checker the scalar twin always runs (kernel_ops gates on
  // check::enabled()), so the checker keeps validating every build.
  const bool vector_backend =
      device.backend() == simt::Backend::kVector && !check::enabled();
  // Lane occupancy feeds only a recorder counter, so it is collected
  // only with one attached; groups built without stats skip the count.
  std::vector<simt::VecLaneStats> vstats;
  if (vector_backend && rec) vstats.resize(device.workers());

  const BucketScheme& scheme = config.modopt_buckets;
  // Degrees are fixed within a phase, so one binning serves every sweep
  // (the pseudocode re-partitions per sweep; the result is identical).
  // Binning runs over subset positions, then maps back to vertex ids.
  Binned& binned = ws.modopt_binned();
  {
    obs::Span span(rec, "modopt/binning");
    bin_by_key_into(
        num_active, scheme,
        [&](VertexId i) { return rows.degree(active[i]); }, binned,
        ws.scratch(), device.pool());
  }
  device.for_each(num_active,
                  [&](std::size_t i) { binned.order[i] = active[binned.order[i]]; });
  if (rec) {
    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      rec->count("modopt/bucket_occupancy",
                 static_cast<double>(binned.bucket(b).size()),
                 static_cast<std::int64_t>(b));
    }
    // Bytes the per-vertex community tables will claim from the
    // shared/global arenas this phase: keys + weights + touched list.
    double ht_bytes = 0;
    for (std::size_t i = 0; i < num_active; ++i) {
      const std::uint32_t deg = rows.degree(binned.order[i]);
      if (deg < 2) continue;
      const std::size_t cap = util::hash_params_for_degree(deg).capacity;
      ht_bytes += static_cast<double>(cap) *
                  (sizeof(Community) + sizeof(Weight) + sizeof(std::uint32_t));
    }
    rec->count("zg/bytes_ht", ht_bytes);
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

  // Sub-round grouping within each bucket: vertices of one bucket are
  // reordered so sub-round classes are contiguous, preserving relative
  // order inside each class. A vertex's class is a hash of its id
  // (Config::commit_subrounds) — the stand-in for the graph coloring
  // of [16] (DESIGN.md §6.1).
  const unsigned subrounds = config.update == UpdateStrategy::Bucketed
                                 ? std::max(1u, config.commit_subrounds)
                                 : 1u;
  const auto class_of = [&](VertexId v) -> unsigned {
    return static_cast<unsigned>(util::hash64(v) % subrounds);
  };
  const std::size_t order_span = rec ? rec->begin_span("modopt/order") : 0;
  // Every position of `order` is written by the class regrouping below,
  // so the workspace buffer needs no initial copy of binned.order.
  auto order = ws.buffer<VertexId>(Workspace::Slot::kModoptOrder, num_active);
  // sub_begin[b * subrounds + s] .. [b * subrounds + s + 1) is the
  // half-open range of bucket b's sub-round s within `order`.
  auto sub_begin = ws.buffer<std::size_t>(Workspace::Slot::kModoptSubBegin,
                                          scheme.num_buckets() * subrounds + 1);
  {
    // Class lists live in the workspace so their capacities survive
    // across sweeps, levels and detect() calls (the per-call
    // construction they replace was a measured hot-loop allocator).
    auto& classes = ws.class_lists();
    if (classes.size() < subrounds) classes.resize(subrounds);
    for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
      auto bucket = binned.bucket(b);
      for (unsigned s = 0; s < subrounds; ++s) classes[s].clear();
      for (VertexId v : bucket) classes[class_of(v)].push_back(v);
      std::size_t at = binned.begin[b];
      for (unsigned s = 0; s < subrounds; ++s) {
        sub_begin[b * subrounds + s] = at;
        for (VertexId v : classes[s]) order[at++] = v;
      }
    }
    sub_begin.back() = num_active;
  }
  if (rec) rec->end_span(order_span);

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
      const unsigned lanes = scheme.lanes[b];
      // The per-vertex argmax array is sized for <= 128 lanes (one
      // block); a wider scheme would scribble past it.
      check::contract(lanes <= 128, "modopt: lane group wider than a block");
      const bool use_global = b >= scheme.global_from;
      // Heaviest bucket: one task per dispatch so the desc-by-degree
      // order load-balances (paper: interleaved assignment to blocks).
      const std::size_t grain = use_global ? 1 : 0;

      for (unsigned s = 0; s < subrounds; ++s) {
        const std::size_t lo = sub_begin[b * subrounds + s];
        const std::size_t hi = (b * subrounds + s + 1 < sub_begin.size() - 1)
                                   ? sub_begin[b * subrounds + s + 1]
                                   : sub_begin.back();
        if (lo >= hi) continue;
        std::span<const VertexId> group_vertices(order.data() + lo, hi - lo);

        {
          obs::Span kernel_span(
              rec, rec ? std::string_view(bucket_names[b]) : std::string_view());
          check::KernelScope kernel_scope("modopt/bucket", b);
          device.launch(group_vertices.size(), grain, [&](simt::TaskContext& ctx) {
            const VertexId v = group_vertices[ctx.task()];
            const std::uint32_t deg = rows.degree(v);
            // Binning contract: a vertex above its bucket's bound would
            // get a lane group and table partition sized for the wrong
            // degree class.
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
            if (deg == 1) {
              compute_move_deg1(rows, ctx.worker(), state, m2, v);
              return;
            }
            const util::HashTableParams params =
                util::hash_params_for_degree(deg);
            const std::size_t cap = params.capacity;
            auto keys = use_global ? ctx.shared().alloc_global<Community>(cap)
                                   : ctx.shared().alloc<Community>(cap);
            auto weights = use_global ? ctx.shared().alloc_global<Weight>(cap)
                                      : ctx.shared().alloc<Weight>(cap);
            auto touched = use_global
                               ? ctx.shared().alloc_global<std::uint32_t>(cap)
                               : ctx.shared().alloc<std::uint32_t>(cap);
            // A task-local table: this lane group runs inside one OS
            // thread (see hash_map.hpp for why no host atomics are
            // needed).
            LocalCommunityHashMap table(keys, weights, params);
            table.clear();
            // The standard widths get compile-time lane counts (constant
            // strided loops and reduction trees); anything else falls
            // back to the runtime group. Same arithmetic either way.
            // On the vector backend the same widths dispatch to
            // VectorLaneGroup, whose collectives lower to AVX2 gathers
            // and masked scans; non-standard ablation widths stay on
            // the scalar substrate.
            if (vector_backend) {
              simt::VecLaneStats* st =
                  vstats.empty() ? nullptr : &vstats[ctx.worker()];
              switch (lanes) {
                case 4:
                  compute_move(rows, ctx.worker(), state, m2, v,
                               simt::VectorLaneGroup<4>{st}, table, touched);
                  return;
                case 8:
                  compute_move(rows, ctx.worker(), state, m2, v,
                               simt::VectorLaneGroup<8>{st}, table, touched);
                  return;
                case 16:
                  compute_move(rows, ctx.worker(), state, m2, v,
                               simt::VectorLaneGroup<16>{st}, table, touched);
                  return;
                case 32:
                  compute_move(rows, ctx.worker(), state, m2, v,
                               simt::VectorLaneGroup<32>{st}, table, touched);
                  return;
                case 128:
                  compute_move(rows, ctx.worker(), state, m2, v,
                               simt::VectorLaneGroup<128>{st}, table, touched);
                  return;
                default:
                  break;  // ablation widths: scalar substrate below
              }
            }
            switch (lanes) {
              case 4:
                compute_move(rows, ctx.worker(), state, m2, v,
                             simt::FixedLaneGroup<4>{}, table, touched);
                break;
              case 8:
                compute_move(rows, ctx.worker(), state, m2, v,
                             simt::FixedLaneGroup<8>{}, table, touched);
                break;
              case 16:
                compute_move(rows, ctx.worker(), state, m2, v,
                             simt::FixedLaneGroup<16>{}, table, touched);
                break;
              case 32:
                compute_move(rows, ctx.worker(), state, m2, v,
                             simt::FixedLaneGroup<32>{}, table, touched);
                break;
              case 128:
                compute_move(rows, ctx.worker(), state, m2, v,
                             simt::FixedLaneGroup<128>{}, table, touched);
                break;
              default:
                compute_move(rows, ctx.worker(), state, m2, v,
                             simt::LaneGroup(lanes), table, touched);
                break;
            }
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
  if (!vstats.empty()) {
    std::uint64_t lanes_active = 0;
    std::uint64_t lanes_issued = 0;
    for (const simt::VecLaneStats& st : vstats) {
      lanes_active += st.active;
      lanes_issued += st.slots;
    }
    if (lanes_issued > 0) {
      rec->count("modopt/vector_lane_occupancy",
                 static_cast<double>(lanes_active) /
                     static_cast<double>(lanes_issued));
    }
  }
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
                           double threshold, obs::Recorder* rec) {
  Workspace ws;
  return optimize_phase(device, graph, config, state,
                        std::span<const VertexId>{}, threshold, ws, rec);
}

PhaseResult optimize_phase(simt::Device& device, const Csr& graph,
                           const Config& config, PhaseState& state,
                           std::span<const VertexId> active,
                           double threshold, obs::Recorder* rec) {
  Workspace ws;
  return optimize_phase(device, graph, config, state, active, threshold, ws,
                        rec);
}

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
