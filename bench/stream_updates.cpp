// Dynamic-graph extension bench (not a paper figure): warm-started
// re-detection after edge churn versus a full recompute per batch.
// Two stream::Sessions replay the same generated delta sequence over
// the same planted-partition graph; one warm-starts from the previous
// partition and at level 0 sweeps only the delta's touched endpoints,
// the other runs the detector cold every epoch. Methodology and the
// acceptance bar (>= 3x at <= 1% modularity gap on the default
// 100k-vertex SBM) are described in EXPERIMENTS.md "Streaming updates";
// the harness exits 1 when a run misses the bar.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "gen/churn.hpp"
#include "gen/sbm.hpp"
#include "stream/session.hpp"

namespace glouvain {
namespace {

int run(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto n = static_cast<graph::VertexId>(
      opt.get_int("scale", 100'000, "vertices in the planted-partition SBM"));
  const auto k = static_cast<graph::VertexId>(
      opt.get_int("communities", 500, "planted communities"));
  const double intra = opt.get_double("intra", 12.0, "expected intra-degree");
  const double inter = opt.get_double("inter", 2.0, "expected inter-degree");
  const int epochs =
      static_cast<int>(opt.get_int("epochs", 8, "churn batches to replay"));
  const double fraction = opt.get_double(
      "fraction", 0.002, "edges churned per batch, as a fraction of m");
  const std::string mode =
      opt.get_string("mode", "preserve", "churn mode: preserve | merge");
  const auto seed =
      static_cast<std::uint64_t>(opt.get_int("seed", 1, "generator seed"));
  const std::string backend =
      opt.get_string("backend", "core", "detection backend for both sessions");
  const auto threads = static_cast<unsigned>(
      opt.get_int("threads", 0, "worker threads (0 = hardware concurrency)"));
  if (opt.help_requested()) {
    std::cout << opt.usage("warm-start streaming updates vs full recompute");
    return 0;
  }

  bench::banner("stream_updates",
                "dynamic extension — warm-started re-detection after edge "
                "churn (no counterpart figure; see EXPERIMENTS.md)");

  gen::SbmParams sbm;
  sbm.num_vertices = n;
  sbm.num_communities = k;
  sbm.intra_degree = intra;
  sbm.inter_degree = inter;
  sbm.seed = seed;
  auto planted = gen::planted_partition(sbm);
  std::printf("graph: sbm n=%s m=%s k=%s churn=%s/batch x %d (%s)\n\n",
              util::Table::count(planted.graph.num_vertices()).c_str(),
              util::Table::count(planted.graph.num_edges()).c_str(),
              util::Table::count(k).c_str(),
              util::Table::percent(fraction, 2).c_str(), epochs, mode.c_str());

  gen::ChurnParams churn;
  churn.epochs = epochs;
  churn.churn_fraction = fraction;
  churn.mode = mode == "merge" ? gen::ChurnMode::CommunityMerging
                               : gen::ChurnMode::CommunityPreserving;
  churn.seed = seed + 1;
  const auto deltas = gen::churn(planted.graph, planted.ground_truth, churn);

  stream::SessionOptions warm_opts;
  warm_opts.backend = backend;
  warm_opts.options.thresholds = bench::paper_thresholds();
  warm_opts.options.threads = threads;
  stream::SessionOptions cold_opts = warm_opts;
  cold_opts.warm = false;

  auto warm = stream::Session::open(planted.graph, warm_opts);
  auto cold = stream::Session::open(std::move(planted.graph), cold_opts);
  if (!warm.ok() || !cold.ok()) {
    std::fprintf(stderr, "session open failed: %s\n",
                 (warm.ok() ? cold.status() : warm.status()).to_string().c_str());
    return 1;
  }
  std::printf("epoch 0 (cold baseline for both): Q = %.4f\n\n",
              warm->result().modularity);

  util::Table table({"epoch", "+edges", "-edges", "frontier", "warm ms",
                     "cold ms", "speedup", "Q warm", "Q cold", "gap"});
  for (std::size_t c = 0; c < 10; ++c) {
    table.set_align(c, util::Table::Align::Right);
  }

  double warm_total = 0;
  double cold_total = 0;
  double worst_gap = 0;
  for (const auto& delta : deltas) {
    const auto wr = warm->apply(delta);
    const auto cr = cold->apply(delta);
    if (!wr.ok() || !cr.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   (wr.ok() ? cr.status() : wr.status()).to_string().c_str());
      return 1;
    }
    const double wt =
        wr->apply_seconds + wr->frontier_seconds + wr->detect_seconds;
    const double ct = cr->apply_seconds + cr->detect_seconds;
    const double gap = std::abs(wr->modularity - cr->modularity) /
                       std::max(std::abs(cr->modularity), 1e-12);
    warm_total += wt;
    cold_total += ct;
    worst_gap = std::max(worst_gap, gap);
    table.add_row({std::to_string(wr->epoch),
                   util::Table::count(wr->inserted),
                   util::Table::count(wr->deleted),
                   util::Table::count(wr->frontier_size),
                   util::Table::fixed(wt * 1e3, 2),
                   util::Table::fixed(ct * 1e3, 2),
                   util::Table::fixed(ct / std::max(wt, 1e-12), 2),
                   util::Table::fixed(wr->modularity, 4),
                   util::Table::fixed(cr->modularity, 4),
                   util::Table::percent(gap, 2)});
  }
  table.print(std::cout);

  const double speedup = cold_total / std::max(warm_total, 1e-12);
  std::printf("\ntotals: warm %.3f s, cold %.3f s, speedup %.2fx, "
              "worst gap %s\n",
              warm_total, cold_total, speedup,
              util::Table::percent(worst_gap, 2).c_str());
  const bool pass = speedup >= 3.0 && worst_gap <= 0.01;
  std::printf("acceptance (>= 3x, gap <= 1%%): %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace glouvain

int main(int argc, char** argv) { return glouvain::run(argc, argv); }
