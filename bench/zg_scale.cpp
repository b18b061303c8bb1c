// Compressed-storage scale harness (DESIGN.md §12): an R-MAT graph in
// the 10-50M-edge range end to end under all three storage modes —
// zcsr (in-memory varint stream), mmap (the same stream read from a
// .zg container mapping) and plain — verifying the partitions are
// bitwise-identical and reporting the adjacency-bytes reduction the
// zg subsystem stands in for (GPU global-memory compression; the K40m
// of the paper holds 12 GB, and §5 bounds the largest processable
// input by exactly this adjacency footprint).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "zg/container.hpp"

using namespace glouvain;

namespace {

/// Sum of every record of an unbinned counter across levels.
double counter_total(const obs::Recorder& rec, std::string_view name) {
  double total = 0;
  for (const obs::CounterRecord& c : rec.counters()) {
    if (rec.name(c.name) == name) total += c.value;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto scale = static_cast<unsigned>(
      opt.get_int("scale", 19, "R-MAT scale (n = 2^scale vertices)"));
  const double edge_factor =
      opt.get_double("edge-factor", 20.0, "edges per vertex");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const auto repeat =
      static_cast<int>(opt.get_int("repeat", 1, "timed runs per mode (min)"));
  const std::string zg_path = opt.get_string(
      "zg", "zg_scale.zg", "container written for (and mapped by) mmap mode");
  if (opt.help_requested()) {
    std::printf("%s",
                opt.usage("compressed-storage scale run (zcsr/mmap/plain)")
                    .c_str());
    return 0;
  }

  bench::banner("zg scale — compressed storage at paper-scale inputs",
                "the 12 GB K40m bounds processable inputs by adjacency bytes; "
                "zcsr/mmap storage cuts those >=2x with bitwise-identical "
                "partitions");

  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  util::Timer gen_timer;
  const graph::Csr g = gen::rmat(params, static_cast<std::uint64_t>(seed));
  std::printf("graph: 2^%u vertices -> %u vertices, %llu edges (%.1fs to "
              "generate)\n",
              scale, g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()),
              gen_timer.seconds());

  util::Timer enc_timer;
  const zg::ZCsr z = zg::ZCsr::encode(g);
  const double encode_seconds = enc_timer.seconds();
  const util::Status saved = zg::save(z, zg_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.to_string().c_str());
    return util::exit_code(saved);
  }
  auto mapped = zg::MappedGraph::open(zg_path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "error: %s\n", mapped.status().to_string().c_str());
    return util::exit_code(mapped.status());
  }
  const double packed =
      static_cast<double>(z.bytes_stream() + z.bytes_index());
  std::printf("encode: %.1fs, %s weights, %.0f adjacency bytes -> %.0f "
              "(%.2fx smaller)\n\n",
              encode_seconds, zg::to_string(z.weight_mode()),
              static_cast<double>(z.plain_bytes()), packed,
              static_cast<double>(z.plain_bytes()) / packed);

  core::Config cfg;
  cfg.thresholds = bench::paper_thresholds();

  struct ModeResult {
    std::string name;
    double seconds = 0;
    detect::Result result;
    double decode_ns = 0;
    double reseeks = 0;
  };
  std::vector<ModeResult> modes;

  // One warm runner per mode (the per-mode arenas and workspace then
  // mirror a dedicated device). Run order is zcsr -> mmap -> plain:
  // ru_maxrss only grows, so the compressed modes run before the plain
  // arrays put the high-water mark out of reach.
  const auto run_mode = [&](const std::string& name, auto&& invoke) {
    core::Louvain runner(cfg);
    obs::Recorder rec;
    ModeResult mr;
    mr.name = name;
    for (int r = 0; r < repeat; ++r) {
      util::Timer t;
      detect::Result result = invoke(runner, rec);
      const double s = t.seconds();
      if (r == 0 || s < mr.seconds) mr.seconds = s;
      mr.result = std::move(result);
    }
    mr.decode_ns = counter_total(rec, "zg/decode_ns") / repeat;
    mr.reseeks = counter_total(rec, "zg/reseeks") / repeat;
    modes.push_back(std::move(mr));
  };

  run_mode("zcsr", [&](core::Louvain& runner, obs::Recorder& rec) {
    return runner.run_z(z, &rec);
  });
  run_mode("mmap", [&](core::Louvain& runner, obs::Recorder& rec) {
    return runner.run_z(mapped->zcsr(), &rec);
  });
  run_mode("plain", [&](core::Louvain& runner, obs::Recorder& rec) {
    return runner.run(g, &rec);
  });

  bool identical = true;
  for (const ModeResult& mr : modes) {
    if (mr.result.community != modes.front().result.community) {
      identical = false;
      std::fprintf(stderr, "FAIL: %s partition differs from %s\n",
                   mr.name.c_str(), modes.front().name.c_str());
    }
  }

  util::Table table({"mode", "seconds", "Q", "levels", "decode ms", "reseeks"});
  for (const ModeResult& mr : modes) {
    table.add_row({mr.name, util::Table::fixed(mr.seconds, 3),
                   util::Table::fixed(mr.result.modularity, 5),
                   std::to_string(mr.result.levels.size()),
                   util::Table::fixed(mr.decode_ns / 1e6, 2),
                   util::Table::fixed(mr.reseeks, 0)});
  }
  table.print(std::cout);
  std::printf("\npartitions: %s\n",
              identical ? "bitwise-identical across modes" : "MISMATCH");
  std::printf("peak RSS: %.1f MiB (whole process; plain arrays dominate)\n",
              static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0));

  return identical ? 0 : 1;
}
