// google-benchmark microbenches for the Thrust-analogue primitives the
// library calls (exclusive scan, sort), whose throughput the kernels
// inherit, and the paper's concurrent hash table (src/paper), which no
// production kernel runs.
#include <benchmark/benchmark.h>

#include <vector>

#include "paper/hash_map.hpp"
#include "paper/primes.hpp"
#include "prim/scan.hpp"
#include "prim/sort.hpp"
#include "util/prng.hpp"

namespace {

using namespace glouvain;

std::vector<std::uint64_t> make_data(std::size_t n) {
  util::Xoshiro256 rng(42);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(1 << 20);
  return v;
}

void BM_ExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto in = make_data(n);
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prim::exclusive_scan(std::span<const std::uint64_t>(in),
                             std::span<std::uint64_t>(out)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_Sort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = make_data(n);
  std::vector<std::uint64_t> data(n);
  for (auto _ : state) {
    data = base;
    prim::sort(std::span<std::uint64_t>(data));
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Sort)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// Single-threaded insert-accumulate throughput of the Algorithm-2
/// hash table at the paper's load factor (<= 2/3).
void BM_HashInsert(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  const auto cap = static_cast<std::size_t>(util::hash_capacity_for_degree(degree));
  std::vector<graph::Community> keys(cap);
  std::vector<graph::Weight> weights(cap);
  core::CommunityHashMap table{std::span<graph::Community>(keys),
                               std::span<graph::Weight>(weights)};
  util::Xoshiro256 rng(7);
  std::vector<graph::Community> communities(degree);
  for (auto& c : communities) {
    c = static_cast<graph::Community>(rng.next_below(degree));
  }
  for (auto _ : state) {
    table.clear();
    for (auto c : communities) {
      benchmark::DoNotOptimize(table.insert_add(c, 1.0));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(degree) * state.iterations());
}
BENCHMARK(BM_HashInsert)->Arg(4)->Arg(32)->Arg(319)->Arg(4096)->Arg(1 << 16);

/// Contended accumulate: all pool workers hammering one table.
void BM_HashInsertContended(benchmark::State& state) {
  const std::size_t keys_n = 64;
  const auto cap = static_cast<std::size_t>(util::hash_capacity_for_degree(keys_n * 2));
  std::vector<graph::Community> keys(cap);
  std::vector<graph::Weight> weights(cap);
  core::CommunityHashMap table{std::span<graph::Community>(keys),
                               std::span<graph::Weight>(weights)};
  auto& pool = simt::ThreadPool::global();
  const std::size_t n = 1 << 18;
  for (auto _ : state) {
    table.clear();
    pool.parallel_for(n, [&](std::size_t i, unsigned) {
      table.insert_add(static_cast<graph::Community>(i % keys_n), 1.0);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_HashInsertContended);

}  // namespace

BENCHMARK_MAIN();
