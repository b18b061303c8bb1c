// Service-layer throughput: p50/p99 job latency and jobs/sec for a
// stream of detection jobs through svc::Service, cold (every graph
// distinct, every job runs a backend) versus warm (the same graphs
// resubmitted, served from the LRU result cache). Not a paper figure:
// this measures the orchestration layer the paper's load-balanced
// kernels point toward (§6 outlook — keeping the device busy across
// many inputs), on top of the reproduced algorithm.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "svc/service.hpp"

namespace {

using namespace glouvain;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

struct PassReport {
  double wall_seconds = 0;
  std::vector<double> latencies;  // per-job submit -> terminal, seconds
  int cache_hits = 0;
  int completed = 0;
};

PassReport run_pass(svc::Service& service, const std::vector<graph::Csr>& graphs) {
  PassReport report;
  util::Timer wall;
  std::vector<svc::JobId> ids;
  ids.reserve(graphs.size());
  for (const auto& g : graphs) ids.push_back(service.submit(g));
  for (const svc::JobId id : ids) {
    const svc::JobResult r = service.wait(id);
    if (r.status == svc::JobStatus::Completed) {
      ++report.completed;
      report.latencies.push_back(r.total_seconds);
      if (r.cache_hit) ++report.cache_hits;
    }
  }
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.04, "graph size multiplier");
  const auto jobs = static_cast<int>(opt.get_int("jobs", 24, "jobs per pass"));
  const auto devices = static_cast<unsigned>(
      opt.get_int("devices", 2, "pooled simt devices"));
  const auto threads = static_cast<unsigned>(
      opt.get_int("threads", 0, "simt workers per device (0 = hardware)"));
  const auto seed = static_cast<std::uint64_t>(
      opt.get_int("seed", 1, "generator seed base"));
  if (opt.help_requested()) {
    std::fputs(opt.usage("service throughput: cold vs cached job streams").c_str(),
               stderr);
    return 0;
  }

  bench::banner("svc_throughput — service layer, jobs/sec and latency",
                "the kernels keep one device saturated on one graph; the "
                "service keeps a device pool saturated on a stream of them "
                "(paper outlook; Staudt & Meyerhenke's engineering line)");

  // Distinct seeds -> distinct fingerprints: the cold pass cannot hit.
  const std::vector<std::string> families = {"orkut", "road", "community",
                                             "rgg"};
  std::vector<graph::Csr> graphs;
  graphs.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    const auto& entry = gen::suite_entry(families[static_cast<std::size_t>(j) %
                                                  families.size()]);
    graphs.push_back(entry.build(scale, seed + static_cast<std::uint64_t>(j)));
  }

  svc::ServiceConfig cfg;
  cfg.devices = devices;
  cfg.options.threads = threads;
  cfg.queue_capacity = static_cast<std::size_t>(jobs) * 2 + 8;
  cfg.cache_capacity = static_cast<std::size_t>(jobs) + 8;
  svc::Service service(cfg);

  const PassReport cold = run_pass(service, graphs);
  const PassReport warm = run_pass(service, graphs);

  util::Table table({"pass", "jobs", "completed", "cache hits", "jobs/s",
                     "p50 ms", "p99 ms", "mean ms"});
  const auto row = [&table, jobs](const char* name, const PassReport& r) {
    table.add_row({name, std::to_string(jobs), std::to_string(r.completed),
                   std::to_string(r.cache_hits),
                   util::Table::fixed(static_cast<double>(r.completed) /
                                          r.wall_seconds, 1),
                   util::Table::fixed(percentile(r.latencies, 0.50) * 1e3, 2),
                   util::Table::fixed(percentile(r.latencies, 0.99) * 1e3, 2),
                   util::Table::fixed(mean(r.latencies) * 1e3, 2)});
  };
  row("cold", cold);
  row("warm (cached)", warm);
  table.print(std::cout);

  const double speedup = mean(warm.latencies) > 0
                             ? mean(cold.latencies) / mean(warm.latencies)
                             : 0;
  std::printf("\ncache-hit speedup (mean cold / mean warm): %.1fx "
              "(acceptance: > 10x)\n", speedup);

  const svc::Stats st = service.stats();
  std::printf("service: %u devices x %u threads; "
              "cache %llu hits / %llu misses; routing device %llu, "
              "sequential %llu\n",
              st.devices, st.device_threads,
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.cache_misses),
              static_cast<unsigned long long>(st.ran_on_device),
              static_cast<unsigned long long>(st.ran_sequential));
  std::printf("phases:  optimize %.3fs, aggregate %.3fs across %llu levels "
              "(%llu sweeps)\n",
              st.optimize_seconds, st.aggregate_seconds,
              static_cast<unsigned long long>(st.levels_total),
              static_cast<unsigned long long>(st.sweeps_total));
  return speedup > 10.0 ? 0 : 1;
}
