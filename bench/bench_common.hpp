// Shared plumbing for the table/figure reproduction harnesses: suite
// iteration, algorithm invocation at the paper's parameter points, and
// uniform reporting (every bench prints a `paper:` line stating the
// published number/shape it reproduces, then its measured rows).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#define GLOUVAIN_BENCH_HAS_RUSAGE 1
#endif

#include "core/louvain.hpp"
#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "obs/recorder.hpp"
#include "plm/plm.hpp"
#include "seq/louvain.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace glouvain::bench {

/// The paper's chosen operating point (§5): t_bin = 1e-2, t_final =
/// 1e-6, switch at 100k vertices.
inline ThresholdSchedule paper_thresholds() {
  return {.t_bin = 1e-2, .t_final = 1e-6, .adaptive_limit = 100'000,
          .adaptive = true};
}

/// Print the provenance banner common to all harnesses.
inline void banner(const char* experiment, const char* paper_claim) {
  std::printf("== %s ==\n", experiment);
  std::printf("reproduces: Naim, Manne, Halappanavar, Tumeo. \"Community "
              "Detection on the GPU\", IPDPS 2017\n");
  std::printf("paper:      %s\n", paper_claim);
  std::printf("substrate:  software-SIMT device (no GPU in this environment; "
              "see DESIGN.md)\n\n");
}

/// Resolve --graph (name | "all") against the suite.
inline std::vector<std::string> graphs_from_options(util::Options& opt,
                                                    const char* def = "all") {
  const std::string which = opt.get_string(
      "graph", def, "suite graph name or 'all' (see gen/suite.hpp)");
  if (which == "all") return gen::suite_names();
  return {which};
}

struct AlgoRun {
  double seconds = 0;
  double modularity = 0;
  int levels = 0;
  double teps = 0;
  double optimize_seconds = 0;  ///< phase 1, summed over the levels
  double contract_seconds = 0;  ///< phase 2, summed over the levels
};

inline AlgoRun make_algo_run(const detect::Result& r) {
  AlgoRun run{r.total_seconds, r.modularity, static_cast<int>(r.levels.size()),
              r.first_phase_teps};
  for (const LevelReport& level : r.levels) {
    run.optimize_seconds += level.optimize_seconds;
    run.contract_seconds += level.aggregate_seconds;
  }
  return run;
}

inline AlgoRun run_seq(const graph::Csr& g, bool adaptive,
                       obs::Recorder* rec = nullptr) {
  seq::Config cfg;
  cfg.thresholds = paper_thresholds();
  cfg.thresholds.adaptive = adaptive;
  return make_algo_run(seq::louvain(g, cfg, rec));
}

inline AlgoRun run_plm(const graph::Csr& g, obs::Recorder* rec = nullptr) {
  plm::Config cfg;
  cfg.thresholds = paper_thresholds();
  return make_algo_run(plm::louvain(g, cfg, rec));
}

inline AlgoRun run_core(const graph::Csr& g, core::Config cfg = core::Config{},
                        obs::Recorder* rec = nullptr) {
  cfg.thresholds = paper_thresholds();
  return make_algo_run(core::louvain(g, cfg, rec));
}

/// Peak resident set of this process in bytes (0 where unsupported).
inline std::uint64_t peak_rss_bytes() {
#ifdef GLOUVAIN_BENCH_HAS_RUSAGE
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
  }
#endif
  return 0;
}

/// `--trace PREFIX` support: when the flag is set, returns a live
/// Recorder for each named run and writes PREFIX-<tag>.json after it.
inline void write_trace(const obs::Recorder& rec, const std::string& prefix,
                        const std::string& tag) {
  const std::string path = prefix + "-" + tag + ".json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  rec.write_chrome_trace(os);
  std::printf("trace written to %s\n", path.c_str());
}

}  // namespace glouvain::bench
