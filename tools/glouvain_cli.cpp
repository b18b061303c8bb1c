// glouvain — command-line front end for the library.
//
//   glouvain generate --family rmat --scale 14 --out g.bin
//   glouvain stats    --in g.bin
//   glouvain detect   --in g.bin --backend core --trace trace.json
//   glouvain convert  --in g.mtx --out g.bin
//   glouvain batch    --manifest jobs.txt --devices 2
//
// `detect` writes one "<vertex> <community>" line per vertex and prints
// modularity / timing to stdout; `--trace FILE` additionally records
// the per-level phase/kernel span tree and dumps it as chrome://tracing
// JSON plus a phase table on stdout. `batch` reads a manifest of graph
// files (one `path [priority]` per line) and runs them concurrently
// through the svc::Service layer.
//
// Every backend is reached through the detect::make() registry — there
// is no per-backend dispatch here. Errors exit with the distinct codes
// of util::exit_code (2 = bad input, 3 = not found, 4 = I/O, ...).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "detect/detector.hpp"
#include "zg/container.hpp"
#include "gen/churn.hpp"
#include "gen/suite.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "metrics/partition.hpp"
#include "metrics/partition_io.hpp"
#include "obs/recorder.hpp"
#include "stream/delta_io.hpp"
#include "stream/session.hpp"
#include "svc/service.hpp"
#include "util/options.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace glouvain;

int usage(const char* error = nullptr) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: glouvain <command> [options]\n"
               "\n"
               "commands:\n"
               "  generate  build a synthetic suite graph and save it\n"
               "            --family <name|list> --scale S --seed N --out FILE\n"
               "  detect    run community detection\n"
               "            --in FILE --backend core|seq|plm|shard\n"
               "            [--out FILE] [--trace FILE] [--tbin X --tfinal Y]\n"
               "            [--threads N] [--verbose]\n"
               "            [--device scalar|vector|auto] [--shards K]\n"
               "            [--partition block|random|hubrep] [--partition-seed N]\n"
               "            [--concurrent-shards]\n"
               "  compress  varint-compress a graph into a .zg container\n"
               "            --in FILE --out FILE.zg\n"
               "  batch     run a manifest of graphs through the service\n"
               "            --manifest FILE [--devices D] [--threads N]\n"
               "            [--aux A] [--queue Q] [--cache C] [--repeat R]\n"
               "            [--backend auto|core|seq|plm|shard]\n"
               "            [--shards K] [--partition block|random|hubrep]\n"
               "            [--concurrent-shards] [--deadline MS]\n"
               "  stream    apply delta batches to a dynamic-graph session\n"
               "            --in FILE --deltas FILE [--backend core|seq]\n"
               "            [--cold] [--threads N] [--out FILE]\n"
               "            warm runs move only the delta's touched endpoints\n"
               "            at level 0; --cold recomputes from scratch\n"
               "  churn     generate timestamped delta batches\n"
               "            --in FILE --out FILE [--labels FILE] [--epochs E]\n"
               "            [--fraction F] [--mode preserve|merge] [--seed N]\n"
               "  stats     print graph statistics      --in FILE\n"
               "  convert   re-encode a graph file      --in FILE --out FILE\n"
               "\n"
               "storage follows the input (detect --in):\n"
               "  .zg    mapped container; level 0 decodes compressed rows\n"
               "         (out-of-core: the plain arrays never materialize)\n"
               "  other  loaded into plain CSR arrays; on the scalar device\n"
               "         the partition is bitwise-equal to the .zg run\n"
               "\n"
               "partition strategies (shard backend): block = arc-balanced\n"
               "  contiguous ranges, random = hashed assignment, hubrep =\n"
               "  arc-balanced blocks with high-degree hubs placed by neighbor\n"
               "  plurality and mirrored into every shard they touch (default)\n"
               "\n"
               "device backends (detect --device; core/shard backends only):\n"
               "  scalar  lockstep lane interpreter; partitions bitwise-stable\n"
               "          across runs and machines\n"
               "  vector  the scalar kernels and move decisions, with the\n"
               "          modularity evaluation's row sums in AVX2 (Q may\n"
               "          differ in the last bits); sums with the scalar\n"
               "          loop without AVX2 or with GLOUVAIN_NO_AVX2 set\n"
               "  auto    vector iff the CPU supports AVX2 (default)\n"
               "\n"
               "flag/exit-code matrix: flags a command does not declare,\n"
               "  negative counts (--threads, --shards, --devices, ...),\n"
               "  unknown names for --backend or --device, and malformed\n"
               "  inputs (graph, deltas, labels) all exit 2 (invalid\n"
               "  argument).\n"
               "\n"
               "exit codes (util::Status, see README):\n"
               "  0 ok                 1 usage error          2 invalid argument\n"
               "  3 not found          4 I/O error            5 resource exhausted\n"
               "  6 deadline exceeded  7 cancelled            8 failed precondition\n"
               "  9 unavailable       10 internal error\n");
  return error ? 1 : 0;
}

/// Print a non-ok status and return its distinct process exit code.
int fail_status(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return util::exit_code(status);
}

/// Every subcommand calls this after its last option declaration, so a
/// flag it never declared (a typo, or one that no longer exists) exits
/// 2 instead of being silently ignored. Returns 0 when all are known.
int reject_unknown(const util::Options& opt) {
  const std::vector<std::string> unknown = opt.unknown();
  if (unknown.empty()) return 0;
  std::string names;
  for (const std::string& key : unknown) {
    names += (names.empty() ? "--" : ", --") + key;
  }
  return fail_status(util::Status::invalid_argument("unknown flag: " + names));
}

/// Declare and read a count flag (threads, shards, devices, ...). A
/// negative value would wrap to 2^32 - 1 or 2^64 - 1 in the cast, so
/// it fails as an invalid argument (exit 2) here, before any input is
/// read; so does a value the count type cannot hold.
template <typename T>
T get_count(util::Options& opt, const std::string& key, std::int64_t def,
            const std::string& help) {
  const std::int64_t value = opt.get_int(key, def, help);
  if (value < 0 ||
      static_cast<std::uint64_t>(value) > std::numeric_limits<T>::max()) {
    throw std::invalid_argument("--" + key + " must be a count in [0, " +
                                std::to_string(std::numeric_limits<T>::max()) +
                                "], got " + std::to_string(value));
  }
  return static_cast<T>(value);
}

util::StatusOr<graph::Csr> load_required(const std::string& in) {
  if (in.empty()) return util::Status::invalid_argument("--in is required");
  return graph::try_load_auto(in);
}

int cmd_generate(util::Options& opt) {
  const std::string family =
      opt.get_string("family", "list", "suite family (or 'list')");
  const double scale = opt.get_double("scale", 0.1, "size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const std::string out = opt.get_string("out", "", "output file (.bin/.txt)");
  if (const int rc = reject_unknown(opt)) return rc;
  if (family == "list") {
    util::Table table({"name", "family", "stands in for"});
    for (const auto& e : gen::table1_suite()) {
      table.add_row({e.name, e.family, e.paper_graph});
    }
    table.print(std::cout);
    return 0;
  }
  if (out.empty()) return usage("--out is required for generate");
  const auto g = gen::suite_entry(family).build(scale, static_cast<std::uint64_t>(seed));
  const util::Status saved =
      (out.size() > 4 && out.compare(out.size() - 4, 4, ".bin") == 0)
          ? graph::try_save_binary(g, out)
          : graph::try_save_edge_list(g, out);
  if (!saved.ok()) return fail_status(saved);
  std::printf("wrote %s: %u vertices, %llu edges\n", out.c_str(),
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

void print_levels(const detect::Result& result) {
  util::Table table({"level", "vertices", "arcs", "sweeps", "Q after",
                     "optimize s", "aggregate s"});
  for (std::size_t l = 0; l < result.levels.size(); ++l) {
    const LevelReport& r = result.levels[l];
    table.add_row({std::to_string(l), std::to_string(r.vertices),
                   std::to_string(r.arcs), std::to_string(r.iterations),
                   util::Table::fixed(r.modularity_after, 5),
                   util::Table::fixed(r.optimize_seconds, 4),
                   util::Table::fixed(r.aggregate_seconds, 4)});
  }
  table.print(std::cout);
}

bool is_zg_path(const std::string& path) {
  return path.size() > 3 && path.compare(path.size() - 3, 3, ".zg") == 0;
}

int cmd_detect(util::Options& opt) {
  const std::string in =
      opt.get_string("in", "", "input graph file (.bin/.txt/.mtx/.zg)");
  const std::string backend =
      opt.get_string("backend", "core", "core | seq | plm | shard");
  const std::string out = opt.get_string("out", "", "community output file");
  const std::string trace_path =
      opt.get_string("trace", "", "write chrome://tracing JSON here");
  const double t_bin = opt.get_double("tbin", 1e-2, "coarse threshold");
  const double t_final = opt.get_double("tfinal", 1e-6, "fine threshold");
  const auto threads = get_count<unsigned>(
      opt, "threads", 0, "simt device worker threads (0 = hardware)");
  const bool verbose =
      opt.get_flag("verbose", "print per-level timings and device stats");
  const std::string device_arg = opt.get_string(
      "device", "auto", "device substrate: scalar | vector | auto");
  const std::string partition_arg = opt.get_string(
      "partition", "", "block | random | hubrep (shard backend only)");

  // One canonical Options carries every algorithm knob; detect's
  // Extensions stay at their defaults here.
  detect::Options options;
  options.thresholds = ThresholdSchedule{.t_bin = t_bin, .t_final = t_final,
                                         .adaptive_limit = 100'000,
                                         .adaptive = true};
  options.threads = threads;
  options.shards = get_count<unsigned>(opt, "shards", 1,
                                       "shard count (shard backend only)");
  options.partition_seed = static_cast<std::uint64_t>(
      opt.get_int("partition-seed", 1, "random-partition seed"));
  options.concurrent_shards = opt.get_flag(
      "concurrent-shards", "run shards concurrently on pooled devices");

  if (const int rc = reject_unknown(opt)) return rc;
  if (!simt::parse_backend(device_arg, options.device)) {
    return fail_status(
        util::Status::invalid_argument("unknown --device: " + device_arg));
  }
  if (!partition_arg.empty() &&
      !detect::parse_partition(partition_arg, options.partition)) {
    return fail_status(
        util::Status::invalid_argument("unknown --partition: " + partition_arg));
  }

  auto detector = detect::make(backend);
  if (!detector.ok()) return fail_status(detector.status());

  // A recorder is attached only when someone will read it; otherwise
  // the run takes the nullptr (zero-overhead) path.
  obs::Recorder recorder;
  obs::Recorder* rec = (!trace_path.empty() || verbose) ? &recorder : nullptr;

  // The input type picks the storage: a .zg container is mapped and run
  // through the compressed entry point (the graph library itself stays
  // below zg in the dependency order, so the format is routed here, not
  // in try_load_auto); every other format loads into plain rows.
  detect::Result result;
  if (is_zg_path(in)) {
    auto mapped = zg::MappedGraph::open(in);
    if (!mapped.ok()) return fail_status(mapped.status());
    result = (*detector)->run_z(mapped->zcsr(), options, rec);
  } else {
    auto loaded = load_required(in);
    if (!loaded.ok()) return fail_status(loaded.status());
    result = (*detector)->run(*loaded, options, rec);
  }

  const auto stats = metrics::partition_stats(result.community);
  std::printf("%s: Q = %.5f, %llu communities, %zu levels, %.3fs\n",
              backend.c_str(), result.modularity,
              static_cast<unsigned long long>(stats.num_communities),
              result.levels.size(), result.total_seconds);
  if (verbose) {
    print_levels(result);
    if (result.device.workers > 0) {
      std::printf("device: %u workers, %llu shared-arena spills\n",
                  result.device.workers,
                  static_cast<unsigned long long>(result.device.shared_spills));
    }
    if (result.first_phase_teps > 0) {
      std::printf("first-phase TEPS: %.3g\n", result.first_phase_teps);
    }
  }
  if (rec) {
    recorder.write_phase_table(std::cout);
    const std::string problem = recorder.validate();
    if (!problem.empty()) {
      std::fprintf(stderr, "warning: span tree malformed: %s\n", problem.c_str());
    }
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (os) recorder.write_chrome_trace(os);
    if (!os) {
      return fail_status(
          util::Status::io_error("cannot write trace: " + trace_path));
    }
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (!out.empty()) {
    const util::Status saved = metrics::save_partition(result.community, out);
    if (!saved.ok()) return fail_status(saved);
    std::printf("communities written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_batch(util::Options& opt) {
  const std::string manifest_path =
      opt.get_string("manifest", "", "manifest file: one `path [priority]` per line");
  svc::ServiceConfig cfg;
  cfg.devices = get_count<unsigned>(opt, "devices", 2, "pooled simt devices");
  cfg.options.threads = get_count<unsigned>(
      opt, "threads", 0, "simt worker threads per device (0 = hardware)");
  cfg.aux_workers = get_count<unsigned>(
      opt, "aux", 1, "device-less workers for sequential jobs");
  cfg.queue_capacity = get_count<std::size_t>(
      opt, "queue", 256, "pending-job bound (backpressure beyond)");
  cfg.cache_capacity = get_count<std::size_t>(
      opt, "cache", 32, "result-cache entries (0 = off)");
  cfg.seq_cost_limit = get_count<std::uint64_t>(
      opt, "seq-limit", 1 << 13, "n+m at or below this runs on the seq backend");
  cfg.options.shards = get_count<unsigned>(opt, "shards", 1,
                                           "shard count (shard backend only)");
  cfg.options.concurrent_shards = opt.get_flag(
      "concurrent-shards", "run shards concurrently on pooled devices");
  const std::string partition_arg = opt.get_string(
      "partition", "", "block | random | hubrep (shard backend only)");
  const std::string backend_arg =
      opt.get_string("backend", "auto", "auto | core | seq | plm | shard");
  const auto repeat = static_cast<int>(
      opt.get_int("repeat", 1, "submit the whole manifest this many times"));
  const auto deadline_ms = opt.get_int(
      "deadline", 0, "per-job deadline in milliseconds (0 = none)");
  if (const int rc = reject_unknown(opt)) return rc;
  if (!partition_arg.empty() &&
      !detect::parse_partition(partition_arg, cfg.options.partition)) {
    return fail_status(
        util::Status::invalid_argument("unknown --partition: " + partition_arg));
  }
  if (backend_arg != "auto") {
    const auto known = detect::make(backend_arg);
    if (!known.ok()) return fail_status(known.status());
  }
  if (manifest_path.empty()) return usage("--manifest is required for batch");

  struct Entry {
    std::string path;
    int priority = 0;
  };
  std::vector<Entry> entries;
  std::ifstream is(manifest_path);
  if (!is) {
    return fail_status(
        util::Status::not_found("cannot open manifest: " + manifest_path));
  }
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    Entry e;
    if (!(ls >> e.path) || e.path[0] == '#' || e.path[0] == '%') continue;
    ls >> e.priority;
    entries.push_back(std::move(e));
  }
  if (entries.empty()) return usage("manifest lists no graphs");

  // Load each distinct file once; repeated passes resubmit the same
  // graphs, which is exactly what exercises the result cache.
  std::vector<graph::Csr> graphs;
  graphs.reserve(entries.size());
  for (const Entry& e : entries) {
    auto g = graph::try_load_auto(e.path);
    if (!g.ok()) return fail_status(g.status());
    graphs.push_back(std::move(g).value());
  }

  svc::Service service(cfg);
  struct Submitted {
    svc::JobId id;
    const Entry* entry;
    int pass;
  };
  std::vector<Submitted> jobs;
  util::Status worst = util::Status::ok_status();
  util::Timer wall;
  for (int pass = 0; pass < repeat; ++pass) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      svc::JobOptions jo;
      jo.priority = entries[i].priority;
      jo.backend = backend_arg;
      jo.deadline = std::chrono::milliseconds(deadline_ms);
      auto id = service.try_submit(graphs[i], jo);
      if (!id.ok()) {
        std::fprintf(stderr, "submit %s (pass %d): %s\n", entries[i].path.c_str(),
                     pass, id.status().to_string().c_str());
        if (worst.ok()) worst = id.status();
        continue;
      }
      jobs.push_back({*id, &entries[i], pass});
    }
  }

  util::Table table({"job", "graph", "pass", "status", "backend", "cache",
                     "Q", "queue ms", "run ms"});
  for (const Submitted& s : jobs) {
    const svc::JobResult r = service.wait(s.id);
    const util::Status status = svc::to_status(r);
    if (!status.ok() && worst.ok()) worst = status;
    table.add_row(
        {std::to_string(s.id), s.entry->path, std::to_string(s.pass),
         svc::to_string(r.status), r.backend,
         r.cache_hit ? "hit" : "-",
         r.result ? util::Table::fixed(r.result->modularity, 5) : "-",
         util::Table::fixed(r.queue_seconds * 1e3, 2),
         util::Table::fixed(r.run_seconds * 1e3, 2)});
  }
  const double total = wall.seconds();
  table.print(std::cout);

  const svc::Stats st = service.stats();
  std::printf("\n%zu jobs in %.3fs (%.1f jobs/s)\n", jobs.size(), total,
              static_cast<double>(jobs.size()) / total);
  std::printf("accepted %llu  rejected %llu  completed %llu  cancelled %llu  "
              "expired %llu  failed %llu\n",
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.cancelled),
              static_cast<unsigned long long>(st.expired),
              static_cast<unsigned long long>(st.failed));
  std::printf("cache hits %llu  misses %llu  entries %zu  evictions %llu\n",
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.cache_misses),
              st.cache_entries,
              static_cast<unsigned long long>(st.cache_evictions));
  std::printf("routing: device %llu  sequential %llu  sharded %llu  "
              "other %llu\n",
              static_cast<unsigned long long>(st.ran_on_device),
              static_cast<unsigned long long>(st.ran_sequential),
              static_cast<unsigned long long>(st.ran_sharded),
              static_cast<unsigned long long>(st.ran_other));
  std::printf("devices %u x %u threads, %llu shared-arena spills; "
              "queue wait %.3fs, run %.3fs\n",
              st.devices, st.device_threads,
              static_cast<unsigned long long>(st.shared_spills),
              st.queue_wait_seconds, st.run_seconds);
  std::printf("phases: optimize %.3fs, aggregate %.3fs over %llu levels, "
              "%llu sweeps\n",
              st.optimize_seconds, st.aggregate_seconds,
              static_cast<unsigned long long>(st.levels_total),
              static_cast<unsigned long long>(st.sweeps_total));
  return util::exit_code(worst);
}

int cmd_stream(util::Options& opt) {
  const std::string in = opt.get_string("in", "", "input graph file");
  const std::string deltas_path =
      opt.get_string("deltas", "", "delta batch file (`batch` / `+ u v w` / `- u v` lines)");
  const std::string out = opt.get_string("out", "", "final community output file");
  stream::SessionOptions so;
  so.backend = opt.get_string(
      "backend", "core", "warm backends: core | seq (others run cold)");
  so.options.threads = get_count<unsigned>(
      opt, "threads", 0, "simt device worker threads (0 = hardware)");
  so.warm = !opt.get_flag("cold", "full recompute per delta (the baseline)");
  if (const int rc = reject_unknown(opt)) return rc;
  auto loaded = load_required(in);
  if (!loaded.ok()) return fail_status(loaded.status());
  graph::Csr g = std::move(loaded).value();
  if (deltas_path.empty()) return usage("--deltas is required for stream");

  auto deltas = stream::try_load_deltas(deltas_path);
  if (!deltas.ok()) return fail_status(deltas.status());

  util::Timer wall;
  auto session = stream::Session::open(std::move(g), std::move(so));
  if (!session.ok()) return fail_status(session.status());
  std::printf("epoch 0 (%s, cold): Q = %.5f, %.3fs\n",
              session->options().backend.c_str(),
              session->result().modularity, wall.seconds());

  util::Table table({"epoch", "stamp", "+edges", "-edges", "frontier",
                     "apply ms", "frontier ms", "detect ms", "Q"});
  for (const stream::Delta& delta : *deltas) {
    auto rep = session->apply(delta);
    if (!rep.ok()) return fail_status(rep.status());
    table.add_row({std::to_string(rep->epoch), std::to_string(delta.stamp),
                   std::to_string(rep->inserted), std::to_string(rep->deleted),
                   std::to_string(rep->frontier_size),
                   util::Table::fixed(rep->apply_seconds * 1e3, 2),
                   util::Table::fixed(rep->frontier_seconds * 1e3, 2),
                   util::Table::fixed(rep->detect_seconds * 1e3, 2),
                   util::Table::fixed(rep->modularity, 5)});
  }
  table.print(std::cout);

  const auto stats = metrics::partition_stats(session->community());
  std::printf("\nfinal after %llu deltas: Q = %.5f, %llu communities, "
              "%u vertices, %.3fs total\n",
              static_cast<unsigned long long>(session->epoch()),
              session->result().modularity,
              static_cast<unsigned long long>(stats.num_communities),
              session->graph().num_vertices(), wall.seconds());
  if (!out.empty()) {
    const util::Status saved = metrics::save_partition(session->community(), out);
    if (!saved.ok()) return fail_status(saved);
    std::printf("communities written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_churn(util::Options& opt) {
  const std::string in = opt.get_string("in", "", "input graph file");
  const std::string out = opt.get_string("out", "", "delta file to write");
  const std::string labels_path = opt.get_string(
      "labels", "", "community file (`v c` lines); default: seq detection");
  gen::ChurnParams params;
  params.epochs =
      get_count<std::uint64_t>(opt, "epochs", 8, "delta batches to generate");
  params.churn_fraction =
      opt.get_double("fraction", 0.01, "edges churned per epoch");
  params.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1, "RNG seed"));
  const std::string mode =
      opt.get_string("mode", "preserve", "preserve | merge");
  if (const int rc = reject_unknown(opt)) return rc;
  auto loaded = load_required(in);
  if (!loaded.ok()) return fail_status(loaded.status());
  const graph::Csr g = std::move(loaded).value();
  if (mode == "merge") {
    params.mode = gen::ChurnMode::CommunityMerging;
  } else if (mode != "preserve") {
    return fail_status(util::Status::invalid_argument("unknown --mode: " + mode));
  }
  if (out.empty()) return usage("--out is required for churn");

  std::vector<graph::Community> labels;
  if (!labels_path.empty()) {
    auto l = metrics::load_partition(labels_path, g.num_vertices());
    if (!l.ok()) return fail_status(l.status());
    labels = std::move(l).value();
  } else {
    auto detector = detect::make("seq");
    if (!detector.ok()) return fail_status(detector.status());
    labels = (*detector)->run(g, {}).community;
  }

  const auto deltas = gen::churn(g, labels, params);
  const util::Status saved = stream::try_save_deltas(deltas, out);
  if (!saved.ok()) return fail_status(saved);
  std::size_t ins = 0;
  std::size_t del = 0;
  for (const auto& d : deltas) {
    ins += d.insertions.size();
    del += d.deletions.size();
  }
  std::printf("wrote %s: %zu batches (%s), %zu insertions, %zu deletions\n",
              out.c_str(), deltas.size(), mode.c_str(), ins, del);
  return 0;
}

int cmd_stats(util::Options& opt) {
  const std::string in = opt.get_string("in", "", "input graph file");
  if (const int rc = reject_unknown(opt)) return rc;
  auto loaded = load_required(in);
  if (!loaded.ok()) return fail_status(loaded.status());
  const graph::Csr g = std::move(loaded).value();
  const auto stats = graph::degree_stats(g);
  std::printf("vertices:    %u\n", g.num_vertices());
  std::printf("edges:       %llu (%llu loops)\n",
              static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(g.num_loops()));
  std::printf("total 2m:    %.1f\n", g.total_weight());
  std::printf("degrees:     min %llu / mean %.2f / max %llu\n",
              static_cast<unsigned long long>(stats.min_degree),
              stats.mean_degree,
              static_cast<unsigned long long>(stats.max_degree));
  std::printf("components:  %llu\n",
              static_cast<unsigned long long>(graph::count_components(g)));
  static const char* kNames[] = {"(0,4]", "(4,8]", "(8,16]", "(16,32]",
                                 "(32,84]", "(84,319]", ">319"};
  std::printf("paper degree buckets:\n");
  for (int b = 0; b < 7; ++b) {
    std::printf("  %-8s %llu\n", kNames[b],
                static_cast<unsigned long long>(stats.bucket_counts[b]));
  }
  const std::string problem = graph::validate(g);
  std::printf("validate:    %s\n", problem.empty() ? "ok" : problem.c_str());
  return 0;
}

int cmd_convert(util::Options& opt) {
  const std::string in = opt.get_string("in", "", "input graph file");
  const std::string out = opt.get_string("out", "", "output file (.bin/.txt)");
  if (const int rc = reject_unknown(opt)) return rc;
  auto loaded = load_required(in);
  if (!loaded.ok()) return fail_status(loaded.status());
  const graph::Csr g = std::move(loaded).value();
  if (out.empty()) return usage("--out is required for convert");
  const util::Status saved =
      (out.size() > 4 && out.compare(out.size() - 4, 4, ".bin") == 0)
          ? graph::try_save_binary(g, out)
          : graph::try_save_edge_list(g, out);
  if (!saved.ok()) return fail_status(saved);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_compress(util::Options& opt) {
  const std::string in = opt.get_string("in", "", "input graph file");
  const std::string out = opt.get_string("out", "", "output container (.zg)");
  if (const int rc = reject_unknown(opt)) return rc;
  auto loaded = load_required(in);
  if (!loaded.ok()) return fail_status(loaded.status());
  const graph::Csr g = std::move(loaded).value();
  if (out.empty()) return usage("--out is required for compress");

  const zg::ZCsr z = zg::ZCsr::encode(g);
  const util::Status saved = zg::save(z, out);
  if (!saved.ok()) return fail_status(saved);

  const auto plain = static_cast<unsigned long long>(z.plain_bytes());
  const auto stream = static_cast<unsigned long long>(z.bytes_stream());
  const auto index = static_cast<unsigned long long>(z.bytes_index());
  std::printf("wrote %s: %u vertices, %llu edges, %s weights\n", out.c_str(),
              z.num_vertices(), static_cast<unsigned long long>(z.num_edges()),
              zg::to_string(z.weight_mode()));
  std::printf("adjacency: %llu plain bytes -> %llu stream + %llu index "
              "(%.2fx smaller)\n",
              plain, stream, index,
              stream + index > 0
                  ? static_cast<double>(plain) /
                        static_cast<double>(stream + index)
                  : 0.0);
  return 0;
}

// Under GLOUVAIN_SIMTCHECK builds, surface the checker's report at
// exit: print every retained violation to stderr and turn a clean
// command exit into the report's util::Status exit code. In normal
// builds this is a no-op that compiles to `return code`.
int with_check_report(int code) {
  if constexpr (check::enabled()) {
    const check::Report report = check::report();
    if (!report.clean()) {
      std::fputs(report.to_string().c_str(), stderr);
      if (code == 0) return util::exit_code(report.to_status());
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  const std::string command = argv[1];
  util::Options opt(argc - 1, argv + 1);
  try {
    if (command == "generate") return with_check_report(cmd_generate(opt));
    if (command == "detect") return with_check_report(cmd_detect(opt));
    if (command == "batch") return with_check_report(cmd_batch(opt));
    if (command == "stream") return with_check_report(cmd_stream(opt));
    if (command == "churn") return with_check_report(cmd_churn(opt));
    if (command == "stats") return cmd_stats(opt);
    if (command == "convert") return cmd_convert(opt);
    if (command == "compress") return with_check_report(cmd_compress(opt));
    if (command == "--help" || command == "-h" || command == "help") return usage();
  } catch (const std::invalid_argument& e) {
    // Library rejections (e.g. an unknown suite family) are invalid
    // arguments, not usage errors: exit 2, no usage dump.
    return fail_status(util::Status::invalid_argument(e.what()));
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  return usage(("unknown command: " + command).c_str());
}
