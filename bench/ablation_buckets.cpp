// §4.1 design ablation: the degree-bucketed lane assignment (the
// paper's central contribution — "the first parallel implementation
// that parallelizes the access to individual edges") against the
// node-centred strategies of prior work: one lane per vertex, and a
// uniform warp per vertex.
//
// Expected shape: on skewed-degree graphs the paper scheme beats
// one-lane-per-vertex (load imbalance from hubs) and uniform-warp
// (wasted lanes on degree-2 vertices); on uniform low-degree graphs
// (road) the advantage shrinks. Core's modopt runs no lane group (its
// moves sum in registers or a per-worker accumulator, DESIGN §5.10),
// so here the schemes differ only in scheduling grain and in how they
// group vertices into commits; `occupancy` analyses the lane widths.
//
// The Q columns print 17 significant digits, so two builds that must
// make the same decisions can be compared bit for bit (the CLI cannot
// select a bucket scheme; this bench is how the ablation widths are
// driven end to end).
#include "bench_common.hpp"

using namespace glouvain;

namespace {

/// Every bit of a modularity, as text.
std::string exact(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", q);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.1, "suite size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const auto graphs = bench::graphs_from_options(opt);
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("Ablation: bucket/lane schemes").c_str());
    return 0;
  }

  bench::banner("Ablation — degree buckets vs node-centred thread assignment",
                "the degree-scaled thread assignment is the paper's claimed "
                "load-balance win over node-centred prior work");

  util::Table table({"graph", "paper[s]", "1-lane[s]", "warp[s]",
                     "vs 1-lane", "vs warp", "Q(paper)", "Q(1-lane)",
                     "Q(warp)"});
  double sum_vs_single = 0, sum_vs_warp = 0;
  for (const auto& name : graphs) {
    const auto g = gen::suite_entry(name).build(scale, static_cast<std::uint64_t>(seed));

    core::Config paper_cfg;  // defaults = paper buckets
    core::Config single_cfg;
    single_cfg.modopt_buckets = core::BucketScheme::single_lane();
    core::Config warp_cfg;
    warp_cfg.modopt_buckets = core::BucketScheme::warp_per_vertex();

    const auto rp = bench::run_core(g, paper_cfg);
    const auto r1 = bench::run_core(g, single_cfg);
    const auto rw = bench::run_core(g, warp_cfg);

    sum_vs_single += r1.seconds / std::max(rp.seconds, 1e-9);
    sum_vs_warp += rw.seconds / std::max(rp.seconds, 1e-9);
    table.add_row({name, util::Table::fixed(rp.seconds, 3),
                   util::Table::fixed(r1.seconds, 3),
                   util::Table::fixed(rw.seconds, 3),
                   util::Table::fixed(r1.seconds / std::max(rp.seconds, 1e-9), 2),
                   util::Table::fixed(rw.seconds / std::max(rp.seconds, 1e-9), 2),
                   exact(rp.modularity), exact(r1.modularity),
                   exact(rw.modularity)});
  }
  table.print(std::cout);
  const double n = static_cast<double>(graphs.size());
  std::printf("\naverages: paper scheme vs 1-lane %.2fx, vs uniform-warp %.2fx "
              "(>1 means the paper scheme is faster)\n",
              sum_vs_single / n, sum_vs_warp / n);
  std::printf("note: on the software device lane groups serialize inside one "
              "OS thread, so only the scheduling/locality component of the "
              "GPU win is visible here, not SIMD occupancy.\n");
  return 0;
}
