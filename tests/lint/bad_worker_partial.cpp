// glint fixture for the worker-partial rule: the five per-worker
// partial sums the library used to keep (commit gains and moved
// counts, the device modularity check, CSR totals, the reference
// modularity, the stream delta counters), plus the ctx.worker() and
// for_each_worker spellings. NOT part of any build target; the
// `glint_fixture_worker` ctest runs it with --expect-violations and
// pins the total: 12 findings.
//
// Expected findings (one per line):
//   commit_shape        2: the gain += and the ++moved
//   device_q_shape      2: the in += and the tot^2 +=
//   csr_totals_shape    2: the weight += and the loop +=
//   reference_q_shape   1: the in +=
//   stream_count_shape  2: both ++ inside the nested stat lambda
//   launch_shape        2: += and postfix ++ indexed by ctx.worker()
//   for_each_worker_shape 1: the -=
// The chunk-level writes at the bottom (parallel_chunks, prim::reduce,
// a padded per-worker struct member, a per-worker row) must NOT be
// reported.

#include <cstddef>
#include <span>
#include <vector>

#include "prim/reduce.hpp"
#include "simt/device.hpp"

namespace glouvain::fixture {

struct Step {
  double gain = 0;
  std::size_t moved = 0;
};

inline void commit_shape(simt::Device& device, std::span<const Step> steps,
                         std::span<double> gain_partial,
                         std::span<std::size_t> moved_partial) {
  device.pool().parallel_for(steps.size(), [&](std::size_t i, unsigned worker) {
    if (steps[i].moved == 0) return;
    gain_partial[worker] += steps[i].gain;
    ++moved_partial[worker];
  });
}

inline void device_q_shape(simt::Device& device, std::span<const double> in,
                           std::span<const double> tot,
                           std::span<double> in_partial,
                           std::span<double> tot_partial) {
  device.pool().parallel_for(in.size(), [&](std::size_t v, unsigned worker) {
    in_partial[worker] += in[v];
    tot_partial[worker] += tot[v] * tot[v];
  });
}

inline void csr_totals_shape(simt::ThreadPool& pool,
                             std::span<const double> strength,
                             std::span<const std::size_t> loops,
                             std::vector<double>& partial_w,
                             std::vector<std::size_t>& partial_loops) {
  pool.parallel_for(strength.size(), [&](std::size_t v, unsigned worker) {
    partial_w[worker] += strength[v];
    partial_loops[worker] += loops[v];
  });
}

inline double reference_q_shape(simt::ThreadPool& pool,
                                 std::span<const double> internal) {
  std::vector<double> in_partial(pool.size(), 0);
  pool.parallel_for(internal.size(), [&](std::size_t v, unsigned worker) {
    in_partial[worker] += internal[v];
  });
  double total = 0;
  for (double p : in_partial) total += p;
  return total;
}

template <typename Visit>
void for_each_delta(std::size_t row, Visit&& visit) {
  for (std::size_t d = 0; d < row; ++d) visit(d % 2 == 0, d % 3 == 0);
}

inline void stream_count_shape(simt::ThreadPool& pool, std::size_t rows,
                               std::span<std::size_t> ins_partial,
                               std::span<std::size_t> del_partial) {
  pool.parallel_for(rows, [&](std::size_t t, unsigned worker) {
    for_each_delta(t, [&](bool inserted, bool deleted) {
      if (deleted) ++del_partial[worker];
      if (inserted) ++ins_partial[worker];
    });
  });
}

inline void launch_shape(simt::Device& device, std::span<double> weight,
                         std::span<std::size_t> visits) {
  device.launch(weight.size(), [&](simt::TaskContext& ctx) {
    weight[ctx.worker()] += 1.0;
    visits[ctx.worker()]++;
  });
}

inline void for_each_worker_shape(simt::Device& device,
                                  std::span<double> budget) {
  device.for_each_worker(budget.size() * 8, [&](std::size_t, unsigned w) {
    budget[w] -= 1.0;
  });
}

// --- Clean: each worker writes its own line, or once per chunk. -----

struct alignas(64) Padded {
  std::size_t rows = 0;
};

inline std::size_t clean_shapes(simt::Device& device,
                                std::span<const double> x,
                                std::span<double> chunk_sum,
                                std::vector<Padded>& per_worker,
                                std::vector<std::vector<double>>& rows) {
  device.pool().parallel_chunks(
      x.size(), 1024, [&](std::size_t b, std::size_t e, unsigned worker) {
        for (std::size_t i = b; i < e; ++i) chunk_sum[worker] += x[i];
      });
  device.pool().parallel_for(x.size(), [&](std::size_t i, unsigned worker) {
    per_worker[worker].rows += 1;
    rows[worker][i % 8] += x[i];
  });
  return prim::reduce(x.size(), [&](std::size_t b, std::size_t e, unsigned) {
    std::size_t part = 0;
    for (std::size_t i = b; i < e; ++i) part += x[i] > 0 ? 1 : 0;
    return part;
  });
}

}  // namespace glouvain::fixture
