// Figures 5 and 6 reproduction: per-stage time breakdown (modularity
// optimization vs aggregation) across the multilevel hierarchy.
//
// Paper shapes: Fig 5 (road_usa) — the first stage dominates, followed
// by a long tail of cheap stages; ~70% of total time in optimization.
// Fig 6 (nlpkkt200) — a pathological middle stage dominates: for the
// first few stages the graph barely contracts, then one expensive
// optimization phase (largest community 2 orders of magnitude bigger
// than before) precedes the collapse.
#include "bench_common.hpp"

using namespace glouvain;

namespace {

void breakdown(const char* figure, const char* graph_name, const char* paper_graph,
               const detect::Result& r) {
  std::printf("\n%s — %s (stands in for %s)\n", figure, graph_name, paper_graph);
  util::Table table({"stage", "|V| in", "sweeps", "opt[s]", "agg[s]",
                     "opt share", "Q after"});
  double opt_total = 0, agg_total = 0;
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    const auto& level = r.levels[i];
    opt_total += level.optimize_seconds;
    agg_total += level.aggregate_seconds;
    table.add_row({std::to_string(i + 1), util::Table::count(level.vertices),
                   std::to_string(level.iterations),
                   util::Table::fixed(level.optimize_seconds, 4),
                   util::Table::fixed(level.aggregate_seconds, 4),
                   util::Table::percent(
                       level.optimize_seconds /
                           std::max(level.optimize_seconds + level.aggregate_seconds,
                                    1e-12),
                       0),
                   util::Table::fixed(level.modularity_after, 4)});
  }
  table.print(std::cout);
  std::printf("phase totals: optimization %.3fs (%s), aggregation %.3fs (%s); "
              "paper: ~70%% / ~30%%\n",
              opt_total,
              util::Table::percent(opt_total / std::max(opt_total + agg_total, 1e-12), 0)
                  .c_str(),
              agg_total,
              util::Table::percent(agg_total / std::max(opt_total + agg_total, 1e-12), 0)
                  .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.3, "suite size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const auto limit = static_cast<graph::VertexId>(
      opt.get_int("adaptive-limit", 2000, "t_bin applies while |V| > limit"));
  const std::string trace_prefix = opt.get_string(
      "trace", "", "write chrome://tracing JSON to PREFIX-<graph>.json");
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("Figures 5-6: per-stage time breakdown").c_str());
    return 0;
  }

  bench::banner("Figures 5 & 6 — per-stage time breakdown",
                "Fig 5 (road_usa): heavy first stage + cheap tail, ~70% of "
                "time in optimization. Fig 6 (nlpkkt200): little contraction "
                "early, then one dominant mid-stage optimization");

  core::Config cfg;
  cfg.thresholds = bench::paper_thresholds();
  cfg.thresholds.adaptive_limit = limit;

  {
    obs::Recorder rec;
    obs::Recorder* recp = trace_prefix.empty() ? nullptr : &rec;
    const auto g = gen::suite_entry("road").build(scale, static_cast<std::uint64_t>(seed));
    const auto r = core::louvain(g, cfg, recp);
    breakdown("Figure 5", "road", "road_usa", r);
    if (recp) {
      rec.write_phase_table(std::cout);
      bench::write_trace(rec, trace_prefix, "road");
    }
  }
  {
    obs::Recorder rec;
    obs::Recorder* recp = trace_prefix.empty() ? nullptr : &rec;
    const auto g = gen::suite_entry("nlpkkt").build(scale, static_cast<std::uint64_t>(seed));
    const auto r = core::louvain(g, cfg, recp);
    breakdown("Figure 6", "nlpkkt", "nlpkkt200", r);
    if (recp) {
      rec.write_phase_table(std::cout);
      bench::write_trace(rec, trace_prefix, "nlpkkt");
    }
  }
  return 0;
}
