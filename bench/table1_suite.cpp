// Table 1 reproduction: the graph suite with sequential and GPU-style
// running times. The paper lists 55 graphs (|V| up to 50.9M) with the
// original sequential time and the GPU time at (t_bin, t_final) =
// (1e-2, 1e-6); the observable to reproduce is the SHAPE — the GPU
// algorithm is faster on every graph, with the largest ratios on
// graphs whose sequential time is dominated by large early phases
// (channel/packing/StocF in the paper).
#include "bench_common.hpp"

#include "graph/ops.hpp"

using namespace glouvain;

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.1, "suite size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const bool skip_seq = opt.get_flag("skip-seq", "only run the GPU-style algorithm");
  const int repeat = static_cast<int>(opt.get_int(
      "repeat", 1, "timed runs per graph; the fastest is reported"));
  const auto graphs = bench::graphs_from_options(opt);
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("Table 1: suite timings, sequential vs GPU-style").c_str());
    return 0;
  }

  bench::banner("Table 1 — benchmark suite timings",
                "sequential Louvain 2.27s-934s per graph on a Xeon i5-6600; "
                "GPU 0.15s-26.1s on a K40m; GPU faster on all 55 graphs");

  util::Table table({"graph", "stands in for", "|V|", "|E|", "deg(avg)",
                     "seq[s]", "seq.opt[s]", "seq.contract[s]", "gpu[s]",
                     "vec[s]", "speedup", "Q(seq)", "Q(gpu)"});
  for (const auto& name : graphs) {
    const auto& entry = gen::suite_entry(name);
    const auto g = entry.build(scale, static_cast<std::uint64_t>(seed));
    const auto stats = graph::degree_stats(g);

    // Best-of-N damps scheduler noise; partitions are identical across
    // repeats.
    bench::AlgoRun seq_run{};
    if (!skip_seq) {
      seq_run = bench::run_seq(g, /*adaptive=*/false);
      for (int r = 1; r < repeat; ++r) {
        const auto again = bench::run_seq(g, /*adaptive=*/false);
        if (again.seconds < seq_run.seconds) seq_run = again;
      }
    }
    // "core" is pinned to the scalar lane substrate — the bitwise
    // reference, whatever the host's vector ISA. The vector substrate
    // gets its own column.
    core::Config scalar_cfg;
    scalar_cfg.device = simt::Backend::kScalar;
    auto core_run = bench::run_core(g, scalar_cfg);
    for (int r = 1; r < repeat; ++r) {
      auto again = bench::run_core(g, scalar_cfg);
      if (again.seconds < core_run.seconds) core_run = std::move(again);
    }

    core::Config vector_cfg;
    vector_cfg.device = simt::Backend::kVector;
    auto vec_run = bench::run_core(g, vector_cfg);
    for (int r = 1; r < repeat; ++r) {
      auto again = bench::run_core(g, vector_cfg);
      if (again.seconds < vec_run.seconds) vec_run = std::move(again);
    }

    table.add_row({name, entry.paper_graph, util::Table::count(g.num_vertices()),
                   util::Table::count(g.num_edges()),
                   util::Table::fixed(stats.mean_degree, 1),
                   skip_seq ? "-" : util::Table::fixed(seq_run.seconds, 3),
                   skip_seq ? "-" : util::Table::fixed(seq_run.optimize_seconds, 3),
                   skip_seq ? "-" : util::Table::fixed(seq_run.contract_seconds, 3),
                   util::Table::fixed(core_run.seconds, 3),
                   util::Table::fixed(vec_run.seconds, 3),
                   skip_seq ? "-"
                            : util::Table::fixed(seq_run.seconds /
                                                     std::max(core_run.seconds, 1e-9),
                                                 1),
                   skip_seq ? "-" : util::Table::fixed(seq_run.modularity, 4),
                   util::Table::fixed(core_run.modularity, 4)});
  }
  table.print(std::cout);
  std::printf("\nnote: sizes are scaled to this container (--scale %.2f); the "
              "paper's originals are 10-100x larger.\n", scale);
  return 0;
}
