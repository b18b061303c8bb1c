// TEPS reproduction (§5, last paragraph): traversed edges per second in
// the first modularity-optimization phase. The paper reports a maximum
// of 0.225 GTEPS (on channel-500) for the single K40m, against 1.54
// GTEPS for a Blue Gene/Q with 524,288 threads — i.e. the
// supercomputer is less than 7x faster than one GPU.
//
// A first sweep at the default scale lasts a few milliseconds, so one
// reading moves with host noise: each column is the median of
// kReadings calls, after one untimed warm-up call.
#include <algorithm>
#include <array>

#include "bench_common.hpp"

using namespace glouvain;

namespace {

constexpr std::size_t kReadings = 5;

/// Median first-phase TEPS of kReadings calls of `run`, which returns
/// a detect::Result, after one untimed warm-up call.
template <typename Run>
double median_teps(Run&& run) {
  (void)run();
  std::array<double, kReadings> teps;
  for (double& t : teps) t = run().first_phase_teps;
  std::nth_element(teps.begin(), teps.begin() + kReadings / 2, teps.end());
  return teps[kReadings / 2];
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.1, "suite size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const auto graphs = bench::graphs_from_options(opt);
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("TEPS of the first modularity phase").c_str());
    return 0;
  }

  bench::banner("TEPS — first-phase processing rate",
                "max 0.225 GTEPS on one K40m (channel-500); Blue Gene/Q with "
                "524,288 threads reaches 1.54 GTEPS, <7x one GPU");

  util::Table table({"graph", "|E|", "gpu MTEPS", "seq MTEPS", "ratio"});
  double best = 0;
  std::string best_name;
  for (const auto& name : graphs) {
    const auto g = gen::suite_entry(name).build(scale, static_cast<std::uint64_t>(seed));
    // One core::Louvain kept warm across the readings, as a service
    // worker or stream session keeps it.
    core::Config core_cfg;
    core_cfg.thresholds = bench::paper_thresholds();
    core::Louvain core(core_cfg);
    const double gpu_teps = median_teps([&] { return core.run(g); });
    seq::Config seq_cfg;
    seq_cfg.thresholds = bench::paper_thresholds();
    seq_cfg.thresholds.adaptive = false;
    const double seq_teps =
        median_teps([&] { return seq::louvain(g, seq_cfg); });
    if (gpu_teps > best) {
      best = gpu_teps;
      best_name = name;
    }
    table.add_row({name, util::Table::count(g.num_edges()),
                   util::Table::fixed(gpu_teps / 1e6, 1),
                   util::Table::fixed(seq_teps / 1e6, 1),
                   util::Table::fixed(gpu_teps / std::max(seq_teps, 1.0), 2)});
  }
  table.print(std::cout);
  std::printf("(each column: median of %zu first sweeps after a warm-up)\n",
              kReadings);
  std::printf("\nbest: %.1f MTEPS on %s (paper: 225 MTEPS on channel-500 with "
              "2880 CUDA cores)\n", best / 1e6, best_name.c_str());
  return 0;
}
