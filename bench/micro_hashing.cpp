// §5 micro-measurement: time to hash all 2|E| edges once, the paper's
// per-vertex tables (Algorithm 2) vs the dense accumulator that core's
// large phases, seq and plm sum neighbourhoods in, on the first
// iteration of the modularity optimization (every vertex its own
// community — worst case for table size).
//
// Paper: the GPU code hashes the first iteration ~9x faster than the
// OpenMP code of [16], attributed to CAS/atomics instead of locks and
// to shared-memory (L1-speed) tables.
#include "bench_common.hpp"

#include "core/buckets.hpp"
#include "core/community_weights.hpp"
#include "core/hash_map.hpp"
#include "core/rows.hpp"
#include "simt/lane_group.hpp"
#include "util/primes.hpp"

using namespace glouvain;

namespace {

/// One full edge-hashing pass with the paper's bucketed kernels
/// (hash tables from the shared arena, lane-strided edge loops).
double core_hash_pass(simt::Device& device, const graph::Csr& g) {
  const auto scheme = core::BucketScheme::paper_modopt();
  const auto binned = core::bin_by_key(
      g.num_vertices(), scheme,
      [&](graph::VertexId v) { return g.degree(v); }, device.pool());
  std::vector<graph::Weight> sink(device.workers(), 0);

  util::Timer timer;
  for (std::size_t b = 0; b < scheme.num_buckets(); ++b) {
    auto bucket = binned.bucket(b);
    if (bucket.empty()) continue;
    const bool use_global = b >= scheme.global_from;
    device.launch(bucket.size(), use_global ? 1 : 0, [&](simt::TaskContext& ctx) {
      const graph::VertexId v = bucket[ctx.task()];
      const graph::EdgeIdx deg = g.degree(v);
      if (deg == 0) return;
      const auto cap =
          static_cast<std::size_t>(util::hash_capacity_for_degree(deg));
      auto keys = use_global ? ctx.shared().alloc_global<graph::Community>(cap)
                             : ctx.shared().alloc<graph::Community>(cap);
      auto weights = use_global ? ctx.shared().alloc_global<graph::Weight>(cap)
                                : ctx.shared().alloc<graph::Weight>(cap);
      core::CommunityHashMap table(keys, weights);
      table.clear();
      const graph::EdgeIdx off = g.offset(v);
      auto adjacency = g.adjacency();
      auto ew = g.edge_weights();
      simt::with_lane_group(scheme.lanes[b], [&](const auto& group) {
        group.strided_for(deg, [&](unsigned, std::size_t idx) {
          // First iteration: every neighbour is its own community.
          table.insert_add(adjacency[off + idx], ew[off + idx]);
        });
      });
      sink[ctx.worker()] += table.weight_at(0);
    });
  }
  const double seconds = timer.seconds();
  double total = 0;
  for (auto s : sink) total += s;
  volatile double keep = total;
  (void)keep;
  return seconds;
}

/// The dense path's inner loop: per-worker core::CommunityWeights
/// (one slot per community id), each row added and then cleared.
double dense_pass(simt::ThreadPool& pool, const graph::Csr& g) {
  const graph::VertexId n = g.num_vertices();
  const core::PlainRows rows(g);
  const std::size_t max_degree = core::max_row_degree(rows);
  std::vector<core::CommunityWeights> acc;
  for (unsigned w = 0; w < pool.size(); ++w) acc.emplace_back(n, max_degree);
  std::vector<graph::Weight> sink(pool.size(), 0);

  util::Timer timer;
  pool.parallel_for(n, [&](std::size_t vi, unsigned worker) {
    core::CommunityWeights& sums = acc[worker];
    // First iteration: every neighbour is its own community.
    sums.add(rows.row(static_cast<graph::VertexId>(vi), worker),
             graph::kInvalidVertex, [](graph::VertexId u) { return u; });
    if (!sums.touched().empty()) sink[worker] += sums[sums.touched()[0]];
    sums.clear();
  });
  const double seconds = timer.seconds();
  double total = 0;
  for (auto s : sink) total += s;
  volatile double keep = total;
  (void)keep;
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const double scale = opt.get_double("scale", 0.2, "suite size multiplier");
  const std::int64_t seed = opt.get_int("seed", 1, "generator seed");
  const std::int64_t reps = opt.get_int("reps", 3, "repetitions (min taken)");
  const auto graphs = bench::graphs_from_options(opt);
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("first-iteration hashing rate, tables vs dense").c_str());
    return 0;
  }

  bench::banner("Hashing microbench — first-iteration edge hashing rate",
                "GPU hashes the first iteration ~9x faster than the OpenMP "
                "code of [16] (CAS + on-chip tables vs locks)");

  simt::Device device;
  util::Table table({"graph", "2|E|", "core[ms]", "dense[ms]", "core MEPS",
                     "dense MEPS", "ratio"});
  for (const auto& name : graphs) {
    const auto g = gen::suite_entry(name).build(scale, static_cast<std::uint64_t>(seed));
    double tc = 1e300, tp = 1e300;
    for (int r = 0; r < reps; ++r) {
      tc = std::min(tc, core_hash_pass(device, g));
      tp = std::min(tp, dense_pass(device.pool(), g));
    }
    const double arcs = static_cast<double>(g.num_arcs());
    table.add_row({name, util::Table::count(g.num_arcs()),
                   util::Table::fixed(tc * 1e3, 2), util::Table::fixed(tp * 1e3, 2),
                   util::Table::fixed(arcs / tc / 1e6, 1),
                   util::Table::fixed(arcs / tp / 1e6, 1),
                   util::Table::fixed(tp / tc, 2)});
  }
  table.print(std::cout);
  std::printf("\nnote: both passes run on the same cores here; the paper's 9x "
              "included the K40m's memory-bandwidth advantage.\n");
  return 0;
}
