// Quickstart: build a graph, run the GPU-style Louvain method, inspect
// the result. This is the 60-second tour of the public API.
//
//   ./quickstart                  # demo graph (ring of cliques)
//   ./quickstart --file my.txt    # your own edge list / .mtx / .bin
#include <cstdio>
#include <utility>

#include "core/louvain.hpp"
#include "gen/cliques.hpp"
#include "graph/io.hpp"
#include "metrics/partition.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace glouvain;

  util::Options opt(argc, argv);
  const std::string file =
      opt.get_string("file", "", "graph file (edge list, .mtx, .graph, .bin)");
  if (opt.help_requested()) {
    std::printf("%s", opt.usage("Louvain community detection quickstart").c_str());
    return 0;
  }

  // 1. Get a graph: from a file, or a demo graph with obvious structure.
  //    Graph I/O reports failure as a util::Status, never by throwing.
  graph::Csr g = gen::ring_of_cliques(32, 12);
  if (!file.empty()) {
    auto loaded = graph::try_load_auto(file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return 1;
    }
    g = std::move(loaded).value();
  }
  std::printf("graph: %u vertices, %llu edges\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  // 2. Run the detector. Config{} gives the paper's defaults: degree
  //    buckets, (1e-2, 1e-6) thresholds, bucketed updates.
  core::Config config;
  const core::Result result = core::louvain(g, config);

  // 3. Use the result: result.community[v] is the community of vertex v
  //    (dense labels in [0, k)); result.levels traces the hierarchy.
  const auto stats = metrics::partition_stats(result.community);
  std::printf("found %llu communities (largest %llu, %llu singletons)\n",
              static_cast<unsigned long long>(stats.num_communities),
              static_cast<unsigned long long>(stats.largest),
              static_cast<unsigned long long>(stats.singletons));
  std::printf("modularity Q = %.4f in %.3fs over %zu levels\n",
              result.modularity, result.total_seconds, result.levels.size());
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const auto& level = result.levels[i];
    std::printf("  level %zu: %u vertices, %d sweeps, Q -> %.4f\n", i + 1,
                level.vertices, level.iterations, level.modularity_after);
  }
  return 0;
}
