// glouvain_e2e: the binary of the end-to-end benchmark (README.md here).
//
//   glouvain_e2e prepare --workload W --seed S --dir D [--smoke 1]
//   glouvain_e2e run     --workload W --dir D [--seconds T] [--reps R] [--smoke 1]
//   glouvain_e2e trace   --workload W --dir D --out PREFIX [--smoke 1]
//   glouvain_e2e env
//
// `prepare` writes the workload's seeded inputs into D. `run` measures
// the end-to-end metrics with nothing traced. `trace` makes the same
// public calls with a span around each, reads the per-level times and
// counts the library reports in detect::Result and stream::DeltaReport,
// and writes PREFIX.trace.json (chrome://tracing) and PREFIX.layers.json.
// `run`, `trace` and `env` print one JSON object as their last line of
// standard output; run.py reads it. The binary uses only public library
// headers and adds no instrumentation to the library.
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/modopt.hpp"
#include "core/rows.hpp"
#include "detect/detector.hpp"
#include "gen/churn.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "gen/suite.hpp"
#include "graph/io.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"
#include "simt/backend.hpp"
#include "simt/device.hpp"
#include "stream/delta_io.hpp"
#include "stream/session.hpp"
#include "zg/container.hpp"
#include "zg/zcsr.hpp"

#ifndef GLOUVAIN_E2E_COMPILER
#define GLOUVAIN_E2E_COMPILER "unknown"
#endif
#ifndef GLOUVAIN_E2E_FLAGS
#define GLOUVAIN_E2E_FLAGS "unknown"
#endif

namespace glouvain::e2e {
namespace {

using graph::Community;
using graph::Csr;
using graph::VertexId;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---------------------------------------------------------------- JSON out

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);  // every digit as measured
  return buf;
}

/// Minimal JSON object writer; keys keep insertion order.
class Json {
 public:
  Json& num(const std::string& key, double v) { return raw(key, number(v)); }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + number(v[i]);
    return raw(key, s + "]");
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.text()); }
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + value;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

// ---------------------------------------------------------------- workloads

enum class Kind { kPlain, kZg, kShard, kChurn };

struct Workload {
  const char* name;
  Kind kind;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"mesh-hash", Kind::kPlain},
    {"road-deep", Kind::kPlain},
    {"rmat-zg", Kind::kZg},
    {"rmat-shard", Kind::kShard},
    {"sbm-churn", Kind::kChurn},
};

const Workload& workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// Input sizes: the measured configuration and the toy one of --smoke.
struct Sizes {
  double fem3d_scale;
  double road_scale;
  unsigned rmat_scale;
  VertexId sbm_vertices;
  VertexId sbm_communities;
  std::uint64_t churn_epochs;  ///< warm-up epochs included
};

Sizes sizes(bool smoke) {
  // R-MAT scale 14 keeps the smoke graph above the shard engine's
  // single-shard cutoff, so the sharded path really runs.
  if (smoke) return {0.02, 0.02, 14, 4'000, 80, 40};
  return {1.0, 2.0, 18, 100'000, 2'000, 2'000};
}

/// Generator seed of the graphs that --seed does not vary: the R-MAT
/// graph and the SBM base graph of the churn stream (README.md, "Seeds").
constexpr std::uint64_t kFixedGraphSeed = 1;
/// Session epochs applied before timing starts (part of set-up).
constexpr std::size_t kWarmEpochs = 10;
/// sbm-churn replays a fixed number of epochs per second of --seconds
/// (the nominal rate of the reference host), so that both sides of a comparison
/// replay the same epochs of the evolving graph.
constexpr double kEpochsPerSecond = 35;
/// Set-ups per `run` process; setup_s is their median.
constexpr int kSetups = 3;
/// Traced reps per `trace` process; per-layer times are their median.
constexpr int kTraceReps = 3;
/// Traced epochs of sbm-churn (after the warm-up epochs).
constexpr std::size_t kTraceEpochs = 30;
/// Q reported by the library must equal the benchmark's own Q.
constexpr double kQTolerance = 1e-9;

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

std::string backend_of(const Workload& w) {
  return w.kind == Kind::kShard ? "shard" : "core";
}

/// Shards of the sharded workload, and of the partitioner every trace times.
constexpr unsigned kShards = 4;

detect::Options options_for(Kind kind, unsigned threads) {
  detect::Options o;
  o.threads = threads;
  if (kind == Kind::kShard) {
    o.shards = kShards;
    o.partition = detect::Partition::kHubRep;
    o.concurrent_shards = true;
  }
  return o;
}

detect::Extensions extensions_for() {
  detect::Extensions ext;
  // Every sharded call partitions afresh, as a one-shot job would.
  ext.shard.plan_cache_capacity = 0;
  return ext;
}

std::unique_ptr<detect::Detector> make_detector(const std::string& backend) {
  auto d = detect::make(backend, extensions_for());
  if (!d.ok()) throw std::runtime_error(d.status().to_string());
  return std::move(d).value();
}

// ---------------------------------------------------------------- inputs

/// FNV-1a over raw array bytes: the input fingerprint that shows two
/// runs measured identical inputs, and the partition identity of a rep.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <typename T>
  void add(std::span<const T> s) {
    const auto* p = reinterpret_cast<const unsigned char*>(s.data());
    for (std::size_t i = 0; i < s.size_bytes(); ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string csr_hash(const Csr& g) {
  Fnv f;
  f.add(g.offsets());
  f.add(g.adjacency());
  f.add(g.edge_weights());
  return f.hex();
}

std::string partition_hash(std::span<const Community> c) {
  Fnv f;
  f.add(c);
  return f.hex();
}

std::string path_in(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

void check_status(const util::Status& s, const std::string& what) {
  if (!s.ok()) throw std::runtime_error(what + ": " + s.to_string());
}

Csr load_graph(const std::string& dir) {
  auto g = graph::try_load_binary(path_in(dir, "graph.bin"));
  check_status(g.status(), "load graph.bin");
  return std::move(g).value();
}

zg::MappedGraph open_zg(const std::string& dir) {
  auto m = zg::MappedGraph::open(path_in(dir, "graph.zg"));
  check_status(m.status(), "open graph.zg");
  return std::move(m).value();
}

std::vector<stream::Delta> load_deltas(const std::string& dir) {
  auto d = stream::try_load_deltas(path_in(dir, "deltas.txt"));
  check_status(d.status(), "load deltas.txt");
  return std::move(d).value();
}

int prepare(const Workload& w, std::uint64_t seed, const std::string& dir,
            bool smoke) {
  const Sizes sz = sizes(smoke);
  std::filesystem::create_directories(dir);
  Csr g;
  std::vector<Community> truth;
  switch (w.kind) {
    case Kind::kPlain:
      // fem3d is a lattice; its generator ignores the seed.
      g = std::string(w.name) == "mesh-hash"
              ? gen::suite_entry("fem3d").build(sz.fem3d_scale, seed)
              : gen::suite_entry("road").build(sz.road_scale, seed);
      break;
    case Kind::kZg:
    case Kind::kShard: {
      gen::RmatParams p;
      p.scale = sz.rmat_scale;
      p.edge_factor = 16;
      g = gen::rmat(p, kFixedGraphSeed);
      break;
    }
    case Kind::kChurn: {
      gen::SbmParams p;
      p.num_vertices = sz.sbm_vertices;
      p.num_communities = sz.sbm_communities;
      p.intra_degree = 12;
      p.inter_degree = 2;
      p.seed = kFixedGraphSeed;
      auto sbm = gen::planted_partition(p);
      g = std::move(sbm.graph);
      truth = std::move(sbm.ground_truth);
      break;
    }
  }
  check_status(graph::try_save_binary(g, path_in(dir, "graph.bin")),
               "save graph.bin");
  Json input;
  input.num("vertices", g.num_vertices())
      .num("edges", static_cast<double>(g.num_edges()))
      .num("arcs", static_cast<double>(g.num_arcs()))
      .str("hash", csr_hash(g));
  if (w.kind == Kind::kZg) {
    check_status(zg::save(zg::ZCsr::encode(g), path_in(dir, "graph.zg")),
                 "save graph.zg");
  }
  if (w.kind == Kind::kChurn) {
    gen::ChurnParams cp;
    cp.epochs = sz.churn_epochs;
    cp.churn_fraction = 1e-4;
    cp.mode = gen::ChurnMode::CommunityPreserving;
    cp.seed = seed;
    const auto deltas = gen::churn(g, truth, cp);
    check_status(stream::try_save_deltas(deltas, path_in(dir, "deltas.txt")),
                 "save deltas.txt");
    Fnv f;
    for (const auto& d : deltas) {
      f.add(std::span<const graph::Edge>(d.insertions));
      f.add(std::span<const graph::Edge>(d.deletions));
    }
    input.num("epochs", static_cast<double>(deltas.size()))
        .str("delta_hash", f.hex());
  }
  std::ofstream(path_in(dir, "input.json")) << input.text() << "\n";
  return 0;
}

// ---------------------------------------------------------------- checks

/// Newman modularity of `c`, computed independently of the library's
/// metrics module: Q = sum_c in_c / 2m - (tot_c / 2m)^2 under the Csr
/// conventions (non-loop edges in both rows, loops once). `rows` calls
/// its argument once per vertex with that vertex's row.
template <typename RowFn>
double modularity_of(VertexId n, double m2, std::span<const Community> c,
                     RowFn&& rows) {
  if (m2 <= 0) return 0;
  std::vector<double> tot(n, 0.0);
  double in = 0;
  rows([&](VertexId v, const VertexId* adj, const double* w, std::size_t deg) {
    for (std::size_t i = 0; i < deg; ++i) {
      if (c[adj[i]] == c[v]) in += w[i];
      tot[c[v]] += w[i];
    }
  });
  double tot_sq = 0;
  for (const double t : tot) tot_sq += t * t;
  return in / m2 - tot_sq / (m2 * m2);
}

double modularity_of(const Csr& g, std::span<const Community> c) {
  return modularity_of(g.num_vertices(), g.total_weight(), c, [&](auto&& fn) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      fn(v, g.neighbors(v).data(), g.weights(v).data(), g.degree(v));
    }
  });
}

double modularity_of(const zg::ZCsr& z, std::span<const Community> c) {
  return modularity_of(z.num_vertices(), z.total_weight(), c, [&](auto&& fn) {
    std::vector<VertexId> adj(z.max_degree());
    std::vector<double> w(z.max_degree());
    auto cursor = z.cursor();
    for (VertexId v = 0; v < z.num_vertices(); ++v) {
      cursor.decode_into(adj.data(), w.data());
      fn(v, adj.data(), w.data(), z.degree(v));
    }
  });
}

/// Labels are one per vertex and exactly cover [0, k) for some k.
bool dense_labels(std::span<const Community> c, VertexId n) {
  if (c.size() != n) return false;
  std::vector<char> seen(n, 0);
  Community top = 0;
  for (const Community l : c) {
    if (l >= n) return false;
    seen[l] = 1;
    top = std::max(top, l);
  }
  return n == 0 || std::all_of(seen.begin(), seen.begin() + top + 1,
                               [](char s) { return s != 0; });
}

/// Named pass/fail results. A name may be checked many times; it passes
/// when every evaluation passed.
class Checks {
 public:
  void add(const std::string& name, bool pass) {
    ++attempted_;
    if (!pass) {
      ++failed_;
      std::fprintf(stderr, "check failed: %s\n", name.c_str());
    }
    auto it = std::find_if(results_.begin(), results_.end(),
                           [&](const auto& r) { return r.first == name; });
    if (it == results_.end()) {
      results_.emplace_back(name, pass);
    } else {
      it->second = it->second && pass;
    }
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  Json json() const {
    Json j;
    for (const auto& [name, pass] : results_) j.boolean(name, pass);
    return j;
  }

 private:
  std::vector<std::pair<std::string, bool>> results_;
  int attempted_ = 0;
  int failed_ = 0;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The CPU brand string from cpuid (no file is read for it).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.substr(0, brand.find('\0'));
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

Json environment(bool traced) {
  Json env;
  env.num("nproc", nproc())
      .str("cpu_model", cpu_model())
      .str("simt_backend",
           simt::backend_name(simt::resolve_backend(simt::Backend::kAuto)))
      .str("compiler", GLOUVAIN_E2E_COMPILER)
      .str("flags", GLOUVAIN_E2E_FLAGS)
      .boolean("traced", traced);
  return env;
}

// ---------------------------------------------------------------- run

/// How long a `run` process measures; recorded in every result, because
/// two runs of different length measure different work (sbm-churn
/// replays a number of epochs set by `seconds`).
struct RunLength {
  double seconds;
  int reps;
};

struct Loop {
  std::vector<double> op_s;
  int attempted = 0;
  int failed = 0;
};

/// Closed loop with one caller: the next call starts when the previous
/// one returns, while more() holds and until `seconds` have passed and
/// at least `reps` calls ran. Only call() is timed; check(result) runs
/// after the clock stops and returns false for a failed call.
template <typename More, typename Call, typename Check>
Loop closed_loop(double seconds, int reps, More&& more, Call&& call,
                 Check&& check) {
  Loop loop;
  const auto start = Clock::now();
  while ((loop.attempted < reps || since(start) < seconds) && more()) {
    ++loop.attempted;
    bool ok = false;
    try {
      const auto t0 = Clock::now();
      auto result = call();
      loop.op_s.push_back(since(t0));
      ok = check(result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "operation threw: %s\n", e.what());
    }
    if (!ok) ++loop.failed;
  }
  return loop;
}

int report_run(const Workload& w, RunLength len, const Loop& loop,
               const std::vector<double>& setup_s, double modularity,
               double rss, const Checks& checks) {
  Json env = environment(false);
  env.num("seconds", len.seconds).num("reps", len.reps);
  Json out;
  out.str("workload", w.name)
      .num("attempted", loop.attempted + checks.attempted())
      .num("failed", loop.failed + checks.failed())
      .list("op_s", loop.op_s)
      .list("setup_s", setup_s)
      .num("modularity", modularity)
      .num("peak_rss_mib", rss)
      .obj("checks", checks.json())
      .obj("env", env);
  std::cout << out.text() << std::endl;
  return checks.failed() || loop.failed ? 1 : 0;
}

int run_batch(const Workload& w, const std::string& dir, RunLength len) {
  const detect::Options opts = options_for(w.kind, nproc());
  // One set-up: load (or map) the input, build the detector, and make one
  // untimed warm-up call. The last set-up's state serves the timed loop.
  std::optional<Csr> graph;
  std::optional<zg::MappedGraph> mapped;
  std::unique_ptr<detect::Detector> det;
  auto call = [&] {
    return mapped ? det->run_z(mapped->zcsr(), opts) : det->run(*graph, opts);
  };
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    det.reset();
    graph.reset();
    mapped.reset();
    const auto t0 = Clock::now();
    if (w.kind == Kind::kZg) {
      mapped.emplace(open_zg(dir));
    } else {
      graph.emplace(load_graph(dir));
    }
    det = make_detector(backend_of(w));
    (void)call();
    setup_s.push_back(since(t0));
  }

  detect::Result first;
  std::string first_hash;
  const Loop loop = closed_loop(
      len.seconds, len.reps, [] { return true; }, call, [&](detect::Result& r) {
        const std::string h = partition_hash(r.community);
        if (first_hash.empty()) {
          first_hash = h;
          first = std::move(r);
        }
        return h == first_hash;  // bitwise identical across reps
      });
  const double rss = peak_rss_mib();

  Checks checks;
  const VertexId n =
      mapped ? mapped->zcsr().num_vertices() : graph->num_vertices();
  checks.add("labels_dense", dense_labels(first.community, n));
  const double q = mapped ? modularity_of(mapped->zcsr(), first.community)
                          : modularity_of(*graph, first.community);
  checks.add("modularity_recomputed", std::abs(q - first.modularity) <= kQTolerance);
  if (w.kind == Kind::kShard) {
    const double core_q = make_detector("core")->run(*graph, opts).modularity;
    checks.add("shard_q_at_least_98pct_of_core", q >= 0.98 * core_q);
  }
  return report_run(w, len, loop, setup_s, q, rss, checks);
}

int run_churn(const Workload& w, const std::string& dir, RunLength len) {
  const std::vector<stream::Delta> deltas = load_deltas(dir);
  const std::size_t epochs = std::max<std::size_t>(
      len.reps, static_cast<std::size_t>(std::lround(len.seconds * kEpochsPerSecond)));
  if (deltas.size() < kWarmEpochs + epochs) {
    throw std::runtime_error("deltas.txt holds too few epochs for --seconds");
  }
  stream::SessionOptions sopts;
  sopts.backend = backend_of(w);
  sopts.options = options_for(w.kind, nproc());
  sopts.extensions = extensions_for();

  std::optional<stream::Session> session;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    const auto t0 = Clock::now();
    auto s = stream::Session::open(load_graph(dir), sopts);
    check_status(s.status(), "Session::open");
    session.emplace(std::move(s).value());
    for (std::size_t e = 0; e < kWarmEpochs; ++e) {
      check_status(session->apply(deltas[e]).status(), "warm-up epoch");
    }
    setup_s.push_back(since(t0));
  }

  std::size_t next = kWarmEpochs;
  const Loop loop = closed_loop(
      0, static_cast<int>(epochs), [&] { return next < kWarmEpochs + epochs; },
      [&] { return session->apply(deltas[next++]); },
      [&](const util::StatusOr<stream::DeltaReport>& rep) {
        return rep.ok() && dense_labels(session->community(),
                                        session->graph().num_vertices());
      });
  const double rss = peak_rss_mib();

  Checks checks;
  const Csr& g = session->graph();
  const double q = modularity_of(g, session->community());
  checks.add("modularity_recomputed",
             std::abs(q - session->result().modularity) <= kQTolerance);
  const double cold = make_detector("core")->run(g, sopts.options).modularity;
  checks.add("warm_q_within_1pct_of_cold", std::abs(q - cold) <= 0.01 * std::abs(cold));
  return report_run(w, len, loop, setup_s, q, rss, checks);
}

// ---------------------------------------------------------------- trace

/// The benchmark's own span list: spans kept in memory and written once,
/// as a chrome trace, when the process ends. Each span records the span
/// that caused it (args.parent in the trace, -1 for none).
class Spans {
 public:
  /// A span from construction to stop() (or destruction); its parent is
  /// the innermost Scope still open.
  class Scope {
   public:
    Scope(Spans& spans, std::string name)
        : spans_(spans), id_(spans.add(std::move(name), spans.now(), 0, spans.open_)) {
      spans_.open_ = id_;
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span (once) and return its duration in seconds.
    double stop() {
      Span& s = spans_.spans_[id_];
      if (!stopped_) {
        s.seconds = spans_.now() - s.start;
        spans_.open_ = s.parent;
        stopped_ = true;
      }
      return s.seconds;
    }
    int id() const { return id_; }
    double start() const { return spans_.spans_[id_].start; }

   private:
    Spans& spans_;
    int id_;
    bool stopped_ = false;
  };

  /// Seconds since the list was made.
  double now() const { return since(origin_); }
  /// Record a finished span; returns its id.
  int add(std::string name, double start, double seconds, int parent) {
    spans_.push_back({std::move(name), start, seconds, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write_chrome(std::ostream& os) const {
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\": " << Json::quote(s.name)
         << ", \"cat\": " << Json::quote(s.name.substr(0, s.name.find('.')))
         << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << number(s.start * 1e6) << ", \"dur\": " << number(s.seconds * 1e6)
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  }

 private:
  struct Span {
    std::string name;
    double start;
    double seconds;
    int parent;
  };
  std::vector<Span> spans_;
  int open_ = -1;
  Clock::time_point origin_ = Clock::now();
};

/// Self time of one traced operation per part, named like its span.
using SelfTimes = std::map<std::string, double>;

/// One metric sample per traced rep; the reported value is the median.
/// An exact metric is a deterministic count and must repeat bit for bit.
class Layers {
 public:
  void add(const std::string& name, const char* unit, double v,
           bool exact = false) {
    Metric& m = metrics_[name];
    m.unit = unit;
    m.exact = exact;
    m.samples.push_back(v);
  }
  void add_self(const SelfTimes& self) {
    for (const auto& [name, s] : self) self_[name].push_back(s);
  }
  double value(const std::string& name) const {
    return median(metrics_.at(name).samples);
  }
  bool exact_repeat() const {
    for (const auto& [name, m] : metrics_) {
      if (m.exact && std::adjacent_find(m.samples.begin(), m.samples.end(),
                                        std::not_equal_to<>()) != m.samples.end()) {
        std::fprintf(stderr, "exact metric %s differs between reps\n", name.c_str());
        return false;
      }
    }
    return true;
  }
  Json metrics_json() const {
    Json j;
    for (const auto& [name, m] : metrics_) {
      Json e;
      e.num("value", median(m.samples))
          .str("unit", m.unit)
          .boolean("exact", m.exact)
          .list("samples", m.samples);
      j.obj(name, e);
    }
    return j;
  }
  Json self_json() const {
    Json j;
    for (const auto& [name, s] : self_) j.num(name, median(s));
    return j;
  }

 private:
  struct Metric {
    std::string unit;
    bool exact = false;
    std::vector<double> samples;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::vector<double>> self_;
};

/// The core layer of one detection, from the per-level times and counts
/// the library reports in `r`. The call's span `parent` began at `start`
/// and took `seconds` by the benchmark's clock; the levels' optimize and
/// aggregate phases are added as its children, laid end to end from
/// `start`. Level 0's optimize time includes its PhaseState::reset, which
/// trace_common also times on its own as core.reset_s.
SelfTimes add_core(Layers& layers, Spans& spans, const detect::Result& r,
                   int parent, double start, double seconds) {
  double t = start, l0 = 0, up = 0, agg = 0;
  int sweeps = 0;
  for (std::size_t l = 0; l < r.levels.size(); ++l) {
    const LevelReport& level = r.levels[l];
    spans.add(l == 0 ? "core.modopt_l0" : "core.modopt_up", t,
              level.optimize_seconds, parent);
    t += level.optimize_seconds;
    spans.add("core.aggregate", t, level.aggregate_seconds, parent);
    t += level.aggregate_seconds;
    (l == 0 ? l0 : up) += level.optimize_seconds;
    agg += level.aggregate_seconds;
    sweeps += level.iterations;
  }
  const int sweeps_l0 = r.levels.empty() ? 0 : r.levels[0].iterations;
  const double arcs_l0 = r.levels.empty() ? 0 : static_cast<double>(r.levels[0].arcs);
  const double self = seconds - l0 - up - agg;
  layers.add("core.modopt_l0_s", "s", l0);
  layers.add("core.modopt_up_s", "s", up);
  layers.add("core.aggregate_s", "s", agg);
  layers.add("core.self_s", "s", self);
  layers.add("core.sweeps_l0", "count", sweeps_l0, true);
  layers.add("core.sweeps", "count", sweeps, true);
  layers.add("core.levels", "count", static_cast<double>(r.levels.size()), true);
  layers.add("core.ns_per_arc_l0", "ns",
             l0 * 1e9 / std::max(1.0, sweeps_l0 * arcs_l0));
  layers.add("core.spills", "count", static_cast<double>(r.device.shared_spills),
             true);
  return {{"core.modopt_l0", l0},
          {"core.modopt_up", up},
          {"core.aggregate", agg},
          {"core.self", self}};
}

/// Median wall time of `reps` calls after one untimed warm-up call.
template <typename Call>
double time_calls(int reps, Call&& call) {
  call();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    call();
    t.push_back(since(t0));
  }
  return median(t);
}

/// The layers every workload reports, measured on the workload's own
/// graph: the level-0 reset, the zg decode pass, the shard partitioner,
/// the sequential reference and the single-thread core run. `core_s` is
/// the untraced multi-thread core time on the same input.
void trace_common(const Workload& w, const Csr& g, const zg::ZCsr* z,
                  double core_s, Spans& spans, Layers& layers) {
  simt::DeviceConfig dev;
  dev.worker_threads = nproc();
  simt::Device device(dev);
  core::PhaseState state;
  for (int i = 0; i < kTraceReps; ++i) {
    Spans::Scope s(spans, "core.reset");
    state.reset(g, device);
    layers.add("core.reset_s", "s", s.stop());
  }

  std::optional<zg::ZCsr> encoded;
  if (!z) z = &encoded.emplace(zg::ZCsr::encode(g));
  for (int i = 0; i < kTraceReps; ++i) {
    core::ZRows rows(*z, device.workers());
    Spans::Scope s(spans, "zg.decode");
    state.reset(rows, device);
    layers.add("zg.decode_s", "s", s.stop());
  }
  layers.add("zg.bytes_per_arc", "B",
             static_cast<double>(z->bytes_stream() + z->bytes_index()) /
                 static_cast<double>(std::max<graph::EdgeIdx>(1, z->num_arcs())),
             true);

  const detect::Options opts = options_for(Kind::kShard, nproc());
  const shard::PartitionConfig pc{opts.shards, opts.partition,
                                  opts.partition_seed,
                                  extensions_for().shard.hub_degree};
  for (int i = 0; i < kTraceReps; ++i) {
    Spans::Scope s(spans, "shard.plan");
    const shard::Plan plan = shard::make_plan(g, pc);
    layers.add("shard.plan_s", "s", s.stop());
    layers.add("shard.cut_fraction", "fraction", plan.stats.cut_fraction, true);
    if (w.kind == Kind::kShard) {
      layers.add("shard.halo_values", "count",
                 static_cast<double>(plan.exchange.values_per_round()), true);
    }
  }

  const detect::Options core_opts = options_for(Kind::kPlain, nproc());
  auto seq = make_detector("seq");
  detect::Result seq_result;
  {
    Spans::Scope s(spans, "seq.detect");
    seq_result = encoded ? seq->run(g, core_opts) : seq->run_z(*z, core_opts);
    const double seq_s = s.stop();
    layers.add("seq.detect_s", "s", seq_s);
    layers.add("seq.core_ratio", "ratio", seq_s / core_s);
  }
  layers.add("seq.modularity", "Q", seq_result.modularity, true);

  detect::Options one = core_opts;
  one.threads = 1;
  auto single = make_detector("core");
  Spans::Scope s(spans, "simt.single_thread");
  if (encoded) {
    (void)single->run(g, one);
  } else {
    (void)single->run_z(*z, one);
  }
  layers.add("simt.speedup_nproc", "ratio", s.stop() / core_s);
}

int trace(const Workload& w, const std::string& dir, const std::string& prefix,
          bool smoke) {
  const detect::Options opts = options_for(w.kind, nproc());
  Spans spans;
  Layers layers;
  Checks checks;

  Csr g;
  for (int i = 0; i < kTraceReps; ++i) {
    Spans::Scope s(spans, "graph.load");
    g = load_graph(dir);
    layers.add("graph.load_s", "s", s.stop());
  }
  std::unique_ptr<detect::Detector> det;
  for (int i = 0; i < kTraceReps; ++i) {
    Spans::Scope s(spans, "detect.make");
    det = make_detector(backend_of(w));
    layers.add("detect.make_s", "s", s.stop());
  }
  std::optional<zg::MappedGraph> mapped;
  // Each traced operation runs next to an untraced call of the same work;
  // trace.overhead_frac compares the two.
  std::vector<double> op_s;      // untraced
  std::vector<double> traced_s;  // traced
  double core_s = 0;             // untraced multi-thread core time

  if (w.kind == Kind::kPlain || w.kind == Kind::kZg) {
    const zg::ZCsr* z = nullptr;
    if (w.kind == Kind::kZg) {
      for (int i = 0; i < kTraceReps; ++i) {
        mapped.reset();
        Spans::Scope s(spans, "zg.open");
        mapped.emplace(open_zg(dir));
        layers.add("zg.open_s", "s", s.stop());
      }
      z = &mapped->zcsr();
      checks.add("zg_decodes_to_plain_graph", z->decode_all() == g);
    }
    auto call = [&] { return z ? det->run_z(*z, opts) : det->run(g, opts); };
    const detect::Result ref = call();  // warm-up and reference partition
    if (z) {
      const detect::Result plain = det->run(z->decode_all(), opts);
      checks.add("zg_equals_plain_run", plain.community == ref.community &&
                                            plain.modularity == ref.modularity);
    }
    for (int i = 0; i < kTraceReps; ++i) {
      const auto t0 = Clock::now();
      (void)call();
      op_s.push_back(since(t0));

      Spans::Scope s(spans, "core.detect");
      const detect::Result r = call();
      traced_s.push_back(s.stop());
      checks.add("partition_identical_across_reps", r.community == ref.community);
      layers.add_self(add_core(layers, spans, r, s.id(), s.start(), traced_s.back()));
    }
    core_s = median(op_s);
    trace_common(w, g, z, core_s, spans, layers);
  } else if (w.kind == Kind::kShard) {
    // Detector::run returns the shard engine's result without its shard
    // counts, so the engine the detector wraps is also run directly.
    shard::Engine engine(shard::to_config(opts, extensions_for().shard));
    auto core = make_detector("core");
    const detect::Result ref = det->run(g, opts);
    const detect::Result core_ref = core->run(g, opts);
    checks.add("shard_q_at_least_98pct_of_core",
               ref.modularity >= 0.98 * core_ref.modularity);
    (void)engine.run(g);
    std::vector<double> core_untraced;
    for (int i = 0; i < kTraceReps; ++i) {
      auto t0 = Clock::now();
      (void)det->run(g, opts);
      op_s.push_back(since(t0));
      t0 = Clock::now();
      (void)core->run(g, opts);
      core_untraced.push_back(since(t0));

      Spans::Scope s(spans, "shard.engine");
      const shard::Result sr = engine.run(g);
      traced_s.push_back(s.stop());
      layers.add("shard.engine_s", "s", traced_s.back());
      layers.add_self({{"shard.engine", traced_s.back()}});
      checks.add("engine_equals_detector", sr.community == ref.community);
      layers.add("shard.rounds", "count", sr.exchange_rounds, true);
      layers.add("shard.critical_work", "count", sr.critical_work, true);
      layers.add("shard.devices_used", "count", sr.devices_used);

      Spans::Scope c(spans, "core.detect");
      const detect::Result cr = core->run(g, opts);
      const double core_traced = c.stop();
      checks.add("partition_identical_across_reps", cr.community == core_ref.community);
      layers.add_self(add_core(layers, spans, cr, c.id(), c.start(), core_traced));
    }
    core_s = median(core_untraced);
    trace_common(w, g, nullptr, core_s, spans, layers);
    layers.add("shard.rounds_s", "s",
               layers.value("shard.engine_s") - layers.value("shard.plan_s"));
    layers.add("shard.core_ratio", "ratio", core_s / median(op_s));
  } else {
    const std::vector<stream::Delta> deltas = load_deltas(dir);
    const std::size_t traced = smoke ? 3 : kTraceEpochs;
    if (deltas.size() < kWarmEpochs + traced) {
      throw std::runtime_error("deltas.txt holds too few epochs");
    }
    stream::SessionOptions sopts;
    sopts.backend = backend_of(w);
    sopts.options = opts;
    sopts.extensions = extensions_for();
    // Two sessions replay the same epochs in lockstep: one untraced, one
    // traced. Both must reach the same partition after every epoch.
    auto open = [&] {
      auto s = stream::Session::open(g, sopts);
      check_status(s.status(), "Session::open");
      return std::move(s).value();
    };
    stream::Session plain = open();
    stream::Session session = open();
    for (std::size_t e = 0; e < kWarmEpochs + traced; ++e) {
      const bool timed = e >= kWarmEpochs;
      const auto t0 = Clock::now();
      checks.add("epoch_applied", plain.apply(deltas[e]).ok());
      if (timed) op_s.push_back(since(t0));

      Spans::Scope s(spans, "stream.epoch");
      const auto applied = session.apply(deltas[e]);
      const double epoch_s = s.stop();
      checks.add("epoch_applied", applied.ok());
      checks.add("sessions_agree", session.community() == plain.community());
      if (!timed || !applied.ok()) continue;
      const stream::DeltaReport& rep = applied.value();
      traced_s.push_back(epoch_s);
      const double detect_start = s.start() + rep.apply_seconds + rep.frontier_seconds;
      spans.add("stream.apply", s.start(), rep.apply_seconds, s.id());
      spans.add("stream.frontier", s.start() + rep.apply_seconds,
                rep.frontier_seconds, s.id());
      const int detect_span =
          spans.add("stream.detect", detect_start, rep.detect_seconds, s.id());
      layers.add("stream.apply_ms_p50", "ms", 1e3 * rep.apply_seconds);
      layers.add("stream.frontier_ms_p50", "ms", 1e3 * rep.frontier_seconds);
      layers.add("stream.detect_ms_p50", "ms", 1e3 * rep.detect_seconds);
      layers.add("stream.frontier_frac", "fraction",
                 static_cast<double>(rep.frontier_size) /
                     session.graph().num_vertices(),
                 true);
      SelfTimes self = add_core(layers, spans, session.result(), detect_span,
                                detect_start, rep.detect_seconds);
      self["stream.apply"] = rep.apply_seconds;
      self["stream.frontier"] = rep.frontier_seconds;
      self["stream.self"] =
          epoch_s - rep.apply_seconds - rep.frontier_seconds - rep.detect_seconds;
      layers.add_self(self);
    }
    auto cold = make_detector("core");
    core_s = time_calls(kTraceReps, [&] { (void)cold->run(session.graph(), opts); });
    trace_common(w, session.graph(), nullptr, core_s, spans, layers);
  }
  layers.add("trace.overhead_frac", "fraction",
             (median(traced_s) - median(op_s)) / median(op_s));

  if (w.kind != Kind::kChurn) {
    // Every rep repeats the same call, so its counts must repeat too.
    // (Epochs differ from each other; their counts repeat across runs.)
    checks.add("exact_metrics_repeat", layers.exact_repeat());
  }
  const bool valid = checks.failed() == 0;

  {
    std::ofstream os(prefix + ".trace.json");
    spans.write_chrome(os);
  }
  Json file;
  file.str("workload", w.name)
      .boolean("valid", valid)
      .obj("checks", checks.json())
      .obj("metrics", layers.metrics_json())
      .obj("self_s", layers.self_json())
      .obj("env", environment(true));
  std::ofstream(prefix + ".layers.json") << file.text() << "\n";

  Json out;
  out.str("workload", w.name)
      .boolean("valid", valid)
      .num("attempted", checks.attempted())
      .num("failed", checks.failed())
      .obj("checks", checks.json());
  std::cout << out.text() << std::endl;
  return valid ? 0 : 1;
}

// ---------------------------------------------------------------- main

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("bad argument: " + key);
      }
      kv_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string get(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  std::string get(const std::string& key, const std::string& def) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> kv_;
};

int main_impl(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: glouvain_e2e prepare|run|trace|env ...");
  }
  const std::string mode = argv[1];
  const Args args(argc, argv);
  if (mode == "env") {
    std::cout << environment(false).text() << std::endl;
    return 0;
  }
  const Workload& w = workload(args.get("workload"));
  const std::string dir = args.get("dir");
  const bool smoke = args.get("smoke", "0") == "1";
  if (mode == "prepare") {
    return prepare(w, std::stoull(args.get("seed")), dir, smoke);
  }
  if (mode == "run") {
    const RunLength len{std::stod(args.get("seconds", "10")),
                        std::stoi(args.get("reps", "5"))};
    return w.kind == Kind::kChurn ? run_churn(w, dir, len) : run_batch(w, dir, len);
  }
  if (mode == "trace") return trace(w, dir, args.get("out"), smoke);
  throw std::invalid_argument("unknown mode: " + mode);
}

}  // namespace
}  // namespace glouvain::e2e

int main(int argc, char** argv) {
  try {
    return glouvain::e2e::main_impl(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "glouvain_e2e: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glouvain_e2e: %s\n", e.what());
    return 1;
  }
}
