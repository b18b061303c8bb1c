// Ablation for this reproduction's one documented deviation from the
// paper's pseudocode: hash-partitioned commit sub-rounds inside each
// degree bucket (Config::commit_subrounds; see DESIGN.md).
//
// Motivation: with subrounds = 1 (the literal pseudocode) all vertices
// of one bucket decide synchronously; on uniform-degree graphs one
// bucket holds nearly every vertex and adjacent vertices oscillate by
// swapping communities in lockstep, capping modularity well below
// sequential (observed Q ~ 0.03 vs 0.18 on the channel mesh at level
// 0). Sub-rounds are the repo's one stand-in for the graph coloring of
// Lu et al. [16], which the paper cites as the source of its move
// controls (DESIGN.md §6.1).
#include "bench_common.hpp"

using namespace glouvain;

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.05, "suite size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const auto graphs = bench::graphs_from_options(opt);
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("Ablation: commit sub-rounds per bucket").c_str());
    return 0;
  }

  bench::banner("Ablation — commit sub-rounds per degree bucket",
                "deviation ablation (not in the paper): S=1 is the literal "
                "pseudocode; S>1 breaks synchronous swap oscillation on "
                "uniform-degree graphs at a small scheduling cost");

  // S=1 is the literal pseudocode; S>1 hash sub-rounds.
  const std::vector<unsigned> rounds{1, 2, 4, 8};
  util::Table table([&] {
    std::vector<std::string> headers{"graph", "Q(seq)"};
    for (auto s : rounds) headers.push_back("Q S=" + std::to_string(s));
    for (auto s : rounds) headers.push_back("t S=" + std::to_string(s));
    return headers;
  }());

  std::vector<double> q_ratio_sum(rounds.size(), 0);
  for (const auto& name : graphs) {
    const auto g = gen::suite_entry(name).build(scale, static_cast<std::uint64_t>(seed));
    const auto seq_run = bench::run_seq(g, /*adaptive=*/false);
    std::vector<std::string> row{name, util::Table::fixed(seq_run.modularity, 4)};
    std::vector<std::string> time_cells;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      core::Config cfg;
      cfg.commit_subrounds = rounds[i];
      const auto r = bench::run_core(g, cfg);
      q_ratio_sum[i] += seq_run.modularity > 1e-9
                            ? r.modularity / seq_run.modularity
                            : 1.0;
      row.push_back(util::Table::fixed(r.modularity, 4));
      time_cells.push_back(util::Table::fixed(r.seconds, 3));
    }
    row.insert(row.end(), time_cells.begin(), time_cells.end());
    table.add_row(row);
  }
  table.print(std::cout);
  std::printf("\naverage modularity vs sequential:");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const std::string label = "S=" + std::to_string(rounds[i]);
    std::printf(" %s: %s", label.c_str(),
                util::Table::percent(q_ratio_sum[i] / static_cast<double>(graphs.size()), 1)
                    .c_str());
  }
  std::printf("\n");
  return 0;
}
