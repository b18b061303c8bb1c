// Figures 3 and 4 reproduction: per-graph speedup of the GPU-style
// algorithm against (Fig 3) the ORIGINAL sequential Louvain (fixed fine
// threshold everywhere) and (Fig 4) the ADAPTIVE sequential variant
// that also uses t_bin on large graphs.
//
// Paper shapes: Fig 3 speedups range 2.7-312 (avg 41.7); Fig 4 drops to
// 1-27 (avg 6.7) because the adaptive sequential baseline is itself
// ~7.3x faster than the original, losing only 0.13% modularity.
#include "bench_common.hpp"

using namespace glouvain;

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.1, "suite size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const auto limit = static_cast<graph::VertexId>(
      opt.get_int("adaptive-limit", 2000, "t_bin applies while |V| > limit"));
  const auto graphs = bench::graphs_from_options(opt);
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("Figures 3-4: speedup vs (adaptive) sequential").c_str());
    return 0;
  }

  bench::banner("Figures 3 & 4 — speedup vs original and adaptive sequential",
                "Fig 3: GPU speedup 2.7-312x (avg 41.7) vs original sequential. "
                "Fig 4: adaptive sequential is ~7.3x faster than original "
                "(-0.13% modularity), leaving GPU speedups of 1-27x (avg 6.7)");

  util::Table table({"graph", "seq[s]", "seq-adapt[s]", "gpu[s]",
                     "fig3 speedup", "fig4 speedup", "Q(seq)", "Q(adapt)",
                     "Q(gpu)"});
  double sum3 = 0, sum4 = 0, sum_adapt_gain = 0, sum_mod_drop = 0;
  for (const auto& name : graphs) {
    auto g = gen::suite_entry(name).build(scale, static_cast<std::uint64_t>(seed));

    // Original sequential: fine threshold from the start.
    seq::Config orig_cfg;
    orig_cfg.thresholds = bench::paper_thresholds();
    orig_cfg.thresholds.adaptive = false;
    const auto orig = seq::louvain(g, orig_cfg);

    // Adaptive sequential (Fig 4's baseline): t_bin on large graphs.
    seq::Config adapt_cfg;
    adapt_cfg.thresholds = bench::paper_thresholds();
    adapt_cfg.thresholds.adaptive_limit = limit;
    const auto adapt = seq::louvain(g, adapt_cfg);

    core::Config gpu_cfg;
    gpu_cfg.thresholds = bench::paper_thresholds();
    gpu_cfg.thresholds.adaptive_limit = limit;
    const auto gpu = core::louvain(g, gpu_cfg);

    const double s3 = orig.total_seconds / std::max(gpu.total_seconds, 1e-9);
    const double s4 = adapt.total_seconds / std::max(gpu.total_seconds, 1e-9);
    sum3 += s3;
    sum4 += s4;
    sum_adapt_gain += orig.total_seconds / std::max(adapt.total_seconds, 1e-9);
    sum_mod_drop += orig.modularity > 1e-9
                        ? (orig.modularity - adapt.modularity) / orig.modularity
                        : 0;

    table.add_row({name, util::Table::fixed(orig.total_seconds, 3),
                   util::Table::fixed(adapt.total_seconds, 3),
                   util::Table::fixed(gpu.total_seconds, 3),
                   util::Table::fixed(s3, 1), util::Table::fixed(s4, 1),
                   util::Table::fixed(orig.modularity, 4),
                   util::Table::fixed(adapt.modularity, 4),
                   util::Table::fixed(gpu.modularity, 4)});
  }
  table.print(std::cout);
  const double n = static_cast<double>(graphs.size());
  std::printf("\naverages: fig3 speedup %.1fx, fig4 speedup %.1fx, adaptive-seq "
              "gain %.1fx (paper: 7.3x), adaptive modularity drop %.2f%% "
              "(paper: 0.13%%)\n",
              sum3 / n, sum4 / n, sum_adapt_gain / n, 100.0 * sum_mod_drop / n);
  std::printf("note: absolute speedups are bounded by this container's %u "
              "hardware threads; the paper's K40m has 2880 cores. The shape "
              "to check: fig4 << fig3, adaptive gain >> 1.\n",
              std::thread::hardware_concurrency());
  return 0;
}
