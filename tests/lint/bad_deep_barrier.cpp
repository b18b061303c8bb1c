// glint fixture: transitive barrier-purity and kernel allocation. The
// violations here hide ONE CALL DEEP: the run_lanes() fan-out body
// calls a helper that writes cross-shard state, and the Device::launch
// body calls a helper that grows a vector — both invisible to a
// syntactic body scan, both exactly what glint's call-graph walk
// exists to catch. NOT part of any build target; run with
// --expect-violations.
//
// Expected findings:
//   shard-barrier  run_lanes body -> commit_now() -> gs.apply_move(...)
//   kernel-alloc   launch body -> log_task() -> sink.push_back(...)
// The buffered / arena-based twins at the bottom must NOT be reported.

#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "shard/halo.hpp"
#include "simt/device.hpp"

namespace glouvain::fixture {

template <typename Fn>
void run_lanes(unsigned lanes, Fn&& fn) {
  std::vector<std::thread> threads;
  for (unsigned lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&fn, lane] { fn(lane); });
  }
  for (std::thread& t : threads) t.join();
}

// The hidden cross-shard write: perfectly innocent-looking at the
// fan-out site.
inline void commit_now(shard::GlobalState& gs, graph::VertexId v,
                       graph::Community c,
                       std::span<const graph::Weight> strengths) {
  gs.apply_move(v, c, strengths);
}

// shard-barrier (one call deep): every lane publishes moves before the
// join barrier — a data race on a real multi-device deployment.
inline void bad_jacobi_round(shard::GlobalState& gs,
                             std::span<const graph::Weight> strengths,
                             unsigned lanes) {
  run_lanes(lanes, [&](unsigned lane) {
    const auto v = static_cast<graph::VertexId>(lane);
    commit_now(gs, v, static_cast<graph::Community>(lane + 1), strengths);
  });
}

// The hidden allocation, same trick.
inline void log_task(std::vector<std::size_t>& sink, std::size_t task) {
  sink.push_back(task);
}

// kernel-alloc (one call deep): vector growth from inside a kernel.
inline void bad_logging_kernel(simt::Device& device,
                               std::vector<std::size_t>& sink) {
  device.launch(64, [&](simt::TaskContext& ctx) {
    log_task(sink, ctx.task());
  });
}

// Clean twins: the lane buffers locally (published after the join, by
// the caller), and the kernel draws from its SharedArena.
inline void good_buffered_round(std::vector<unsigned>& buffer,
                                unsigned lanes) {
  run_lanes(lanes, [&](unsigned lane) { buffer[lane] = lane + 1; });
}

inline long good_arena_kernel(simt::Device& device, std::size_t n) {
  long total = 0;
  device.launch(1, [&](simt::TaskContext& ctx) {
    auto scratch = ctx.shared().alloc<long>(n);
    for (std::size_t i = 0; i < n; ++i) scratch[i] = 1;
    for (std::size_t i = 0; i < n; ++i) total += scratch[i];
  });
  return total;
}

}  // namespace glouvain::fixture
