// Sharded multi-device scaling experiment (src/shard): partition the
// level-0 graph into k shards with hub replication, run per-shard move
// phases with halo exchange, and track (a) solution quality against
// the sequential reference and (b) the modeled device-parallel
// critical path as k grows. In the default sequential mode the shards
// execute one after another on one warm software-SIMT device, so
// wall-clock does NOT shrink with k — the critical path (max per-shard
// phase time + exchange, per round) is what a k-GPU deployment would
// wait on (see DESIGN.md §14). With --concurrent each sequential run
// is paired with a concurrent one: the same k shards as Jacobi rounds
// on k pooled devices (simt::DevicePool), where wall-clock DOES
// shrink — the measured sequential/concurrent ratio is the speedup
// column.
//
// Gates (exit 1 on failure; the CI bench-gates job runs these):
//   * k = 1 is bitwise-identical to the core backend, sequential AND
//     (with --concurrent) concurrent;
//   * quality stays >= 98% of sequential Louvain at every sharded k
//     for both block and hubrep partitioning, sequential AND
//     concurrent (the Jacobi schedule must not cost quality);
//   * the critical path, in DETERMINISTIC work units
//     (Result::critical_work: sweeps x active arcs on the busiest
//     shard + marshal + exchange per round), decreases strictly
//     monotonically across the sequential k ladder for each strategy;
//   * with --concurrent on a host with >= 8 hardware threads, hubrep
//     k=4 concurrent wall-clock beats sequential by >= 1.8x. On
//     smaller hosts (the 1-CPU CI runner included) the speedup is
//     reported as a diagnostic only — there are no spare cores for
//     the lanes to land on, so the ratio measures scheduler noise.
// Wall time on this one-CPU simulator swings +-2x with machine load
// (and folds in thread-pool launch overhead a real device pays in
// microseconds), so critical SECONDS are reported as a diagnostic,
// not gated; the engine is deterministic, so identical inputs gate
// identically on a given lane substrate.
#include "bench_common.hpp"

#include <cstring>
#include <thread>

#include "gen/rmat.hpp"
#include "shard/engine.hpp"

using namespace glouvain;

namespace {

struct ShardRun {
  unsigned k = 1;
  const char* partition = "-";
  bool concurrent = false;
  shard::Result result;
  double seconds = 0;
  double speedup = 0;  ///< sequential wall / concurrent wall (conc rows)
};

const char* partition_label(detect::Partition p) {
  return detect::partition_name(p);
}

shard::Config make_cfg(unsigned k, detect::Partition strategy,
                       bool concurrent) {
  shard::Config cfg;
  cfg.thresholds = bench::paper_thresholds();
  cfg.shards = k;
  cfg.partition = strategy;
  cfg.concurrent_shards = concurrent;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto scale = static_cast<unsigned>(
      opt.get_int("scale", 19, "rmat scale (n = 2^scale)"));
  const double edge_factor =
      opt.get_double("edge-factor", 20.0, "rmat edges per vertex");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const bool full = opt.get_flag("full", "also run k = 8");
  const bool concurrent =
      opt.get_flag("concurrent", "pair each sharded run with a concurrent "
                                 "(pooled-device Jacobi) variant");
  const auto max_k = static_cast<unsigned>(
      opt.get_int("max-k", full ? 8 : 4, "largest shard count in the ladder"));
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("sharded multi-device scaling").c_str());
    return 0;
  }

  bench::banner("Sharded Louvain — hub-replicated partitioning + halo "
                "exchange",
                "conclusion/[4]: coarse-grained multi-GPU holds quality; "
                "hub replication (PowerGraph-style) bounds the ghost "
                "surface of scale-free cuts");

  const graph::Csr g =
      gen::rmat({.scale = scale, .edge_factor = edge_factor},
                static_cast<std::uint64_t>(seed));
  std::printf("rmat scale %u: %u vertices, %llu edges\n\n", scale,
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  // Quality reference: sequential Blondel-style Louvain (the gate the
  // ISSUE pins), plus the core backend for the k = 1 bitwise check.
  const bench::AlgoRun seq = bench::run_seq(g, /*adaptive=*/true);
  std::printf("seq  reference: Q = %.5f (%.2fs)\n", seq.modularity,
              seq.seconds);
  core::Config core_cfg;
  core_cfg.thresholds = bench::paper_thresholds();
  const core::Result core_r = core::louvain(g, core_cfg);
  std::printf("core reference: Q = %.5f (%.2fs)\n\n", core_r.modularity,
              core_r.total_seconds);

  std::vector<unsigned> ks;
  for (const unsigned k : {1u, 2u, 4u, 8u}) {
    if (k <= max_k) ks.push_back(k);
  }
  const detect::Partition strategies[] = {detect::Partition::kBlock,
                                          detect::Partition::kHubRep};
  const unsigned hw = std::thread::hardware_concurrency();

  std::vector<ShardRun> runs;
  bool ok = true;

  // k = 1 first (partition-independent): must replicate core exactly.
  {
    shard::Config cfg = make_cfg(1, detect::Partition::kHubRep, false);
    util::Timer t;
    ShardRun run{1, "-", false, shard::louvain(g, cfg), 0, 0};
    run.seconds = t.seconds();
    const bool bitwise =
        run.result.community == core_r.community &&
        run.result.modularity == core_r.modularity;
    std::printf("k=1 bitwise vs core: %s\n", bitwise ? "identical" : "MISMATCH");
    if (!bitwise) ok = false;
    runs.push_back(std::move(run));
  }
  if (concurrent) {
    // The unsharded path ignores the concurrency knob at the moves
    // level, but must still reproduce core exactly end to end.
    shard::Config cfg = make_cfg(1, detect::Partition::kHubRep, true);
    const shard::Result r = shard::louvain(g, cfg);
    const bool bitwise = r.community == core_r.community &&
                         r.modularity == core_r.modularity;
    std::printf("k=1 concurrent bitwise vs core: %s\n",
                bitwise ? "identical" : "MISMATCH");
    if (!bitwise) ok = false;
  }
  std::printf("\n");

  for (const auto strategy : strategies) {
    for (const unsigned k : ks) {
      if (k == 1) continue;
      shard::Config cfg = make_cfg(k, strategy, false);
      util::Timer t;
      ShardRun run{k, partition_label(strategy), false,
                   shard::louvain(g, cfg), 0, 0};
      run.seconds = t.seconds();
      const double seq_wall = run.seconds;
      runs.push_back(std::move(run));

      if (concurrent) {
        shard::Config ccfg = make_cfg(k, strategy, true);
        util::Timer ct;
        ShardRun crun{k, partition_label(strategy), true,
                      shard::louvain(g, ccfg), 0, 0};
        crun.seconds = ct.seconds();
        crun.speedup = crun.seconds > 1e-9 ? seq_wall / crun.seconds : 0;
        runs.push_back(std::move(crun));
      }
    }
  }

  util::Table table({"partition", "k", "mode", "Q", "vs seq", "work[Marc]",
                     "critical[s]", "wall[s]", "devs", "speedup"});
  for (const ShardRun& run : runs) {
    const auto& r = run.result;
    table.add_row(
        {run.partition, std::to_string(run.k),
         run.concurrent ? "conc" : "seq",
         util::Table::fixed(r.modularity, 5),
         util::Table::percent(
             seq.modularity > 1e-9 ? r.modularity / seq.modularity : 1.0, 1),
         util::Table::fixed(r.critical_work * 1e-6, 1),
         util::Table::fixed(r.critical_seconds, 3),
         util::Table::fixed(run.seconds, 3),
         std::to_string(r.devices_used),
         run.concurrent ? util::Table::fixed(run.speedup, 2) : "-"});
  }
  table.print(std::cout);

  // ---- gates ----
  for (const ShardRun& run : runs) {
    if (run.k == 1) continue;
    const double ratio = run.result.modularity / seq.modularity;
    if (ratio < 0.98) {
      std::printf("GATE FAIL: %s k=%u %s quality %.1f%% of seq (< 98%%)\n",
                  run.partition, run.k, run.concurrent ? "conc" : "seq",
                  100.0 * ratio);
      ok = false;
    }
  }
  const double work1 = runs[0].result.critical_work;
  for (const auto strategy : strategies) {
    const char* pname = partition_label(strategy);
    double prev = work1;
    unsigned prev_k = 1;
    for (const ShardRun& run : runs) {
      if (run.k == 1 || run.concurrent ||
          std::strcmp(run.partition, pname) != 0) {
        continue;
      }
      if (run.result.critical_work >= prev) {
        std::printf("GATE FAIL: %s critical work k=%u (%.1fM arcs) not "
                    "below k=%u (%.1fM arcs)\n",
                    pname, run.k, run.result.critical_work * 1e-6, prev_k,
                    prev * 1e-6);
        ok = false;
      }
      prev = run.result.critical_work;
      prev_k = run.k;
    }
  }
  // The wall-clock speedup gate arms only where it is physically
  // meaningful: a concurrent hubrep k=4 run on a host with >= 8
  // hardware threads (4 lanes x >= 2 workers). Elsewhere — notably a
  // 1-CPU CI runner, where the lanes timeshare one core — the ratio
  // is recorded as a diagnostic.
  if (concurrent && max_k >= 4) {
    for (const ShardRun& run : runs) {
      if (!run.concurrent || run.k != 4 ||
          std::strcmp(run.partition, "hubrep") != 0) {
        continue;
      }
      if (hw >= 8 && run.speedup < 1.8) {
        std::printf("GATE FAIL: concurrent hubrep k=4 speedup %.2fx < 1.8x "
                    "(hw=%u)\n",
                    run.speedup, hw);
        ok = false;
      } else {
        std::printf("concurrent hubrep k=4 speedup: %.2fx (hw=%u, gate %s)\n",
                    run.speedup, hw, hw >= 8 ? "armed" : "diagnostic only");
      }
    }
  }
  std::printf("\ngates: %s\n", ok ? "PASS" : "FAIL");
  std::printf("note: sequential rows simulate the shards one after another "
              "on one device; work[Marc]/critical[s] model the per-round "
              "max-shard + exchange path a k-device deployment waits on. "
              "The work column is deterministic and gated; seconds and "
              "speedups are diagnostics unless the host has the cores to "
              "make them physical.\n");

  return ok ? 0 : 1;
}
