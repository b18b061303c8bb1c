// The software SIMT device: thread pool + kernel-launch API. This is
// the substitution for the CUDA runtime in the reproduction (see
// DESIGN.md §1): kernels are launched over a 1-D grid of tasks, each
// task runs to completion on one worker, and — exactly like thread
// blocks — tasks cannot synchronize with each other inside a launch;
// the host synchronizes by returning from launch(). A task draws its
// scratch from buffers sized before the launch and indexed by its
// worker (core::Workspace's accumulators).
#pragma once

#include <cstddef>
#include <memory>

#include "check/check.hpp"
#include "simt/backend.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::simt {

/// Lane counts (a 32-lane warp, 128-thread blocks) are properties of
/// the paper's bucket scheme (core::BucketScheme), not of the device.
struct DeviceConfig {
  unsigned worker_threads = 0;  ///< 0 = hardware concurrency
  /// Substrate of the device's vector primitive (the modularity row
  /// sum; see backend.hpp). kAuto resolves at construction (vector iff the CPU has AVX2 and
  /// GLOUVAIN_NO_AVX2 is unset); Device::backend() is always concrete.
  Backend backend = Backend::kAuto;
};

/// Execution context handed to each kernel task ("thread block").
class TaskContext {
 public:
  TaskContext(std::size_t task, unsigned worker) noexcept
      : task_(task), worker_(worker) {}

  std::size_t task() const noexcept { return task_; }
  unsigned worker() const noexcept { return worker_; }

 private:
  std::size_t task_;
  unsigned worker_;
};

class Device {
 public:
  explicit Device(const DeviceConfig& config = {})
      : config_(config),
        backend_(resolve_backend(config.backend)),
        pool_(std::make_unique<ThreadPool>(config.worker_threads)) {}

  const DeviceConfig& config() const noexcept { return config_; }

  /// The resolved substrate — never kAuto. The modularity evaluation
  /// picks its row sum (scalar loop vs AVX2) on this.
  Backend backend() const noexcept { return backend_; }

  unsigned workers() const noexcept { return pool_->size(); }
  ThreadPool& pool() noexcept { return *pool_; }

  /// Launch `tasks` independent kernel tasks; body(TaskContext&).
  /// Returns when every task has completed (host-side sync point).
  template <typename Body>
  void launch(std::size_t tasks, Body&& body) {
    launch(tasks, /*grain=*/0, std::forward<Body>(body));
  }

  /// Launch with an explicit scheduling grain (tasks per dispatch).
  /// grain == 0 picks the pool default.
  template <typename Body>
  void launch(std::size_t tasks, std::size_t grain, Body&& body) {
    if (grain == 0) grain = pool_->default_grain(tasks);
    const std::uint64_t epoch = check::open_launch(tasks);
    pool_->parallel_for(tasks, grain,
                        [epoch, &body](std::size_t t, unsigned w) {
                          check::TaskScope task_scope(epoch, t);
                          TaskContext ctx(t, w);
                          body(ctx);
                        });
    check::close_launch(epoch);
  }

  /// Plain data-parallel loop without a TaskContext — the analogue of
  /// a trivial elementwise kernel. fn(i). Each index is its own task for
  /// the checker: elementwise kernels must not couple their iterations.
  template <typename F>
  void for_each(std::size_t n, F&& fn) {
    const std::uint64_t epoch = check::open_launch(n);
    pool_->parallel_for(n, [epoch, &fn](std::size_t i, unsigned) {
      check::TaskScope task_scope(epoch, i);
      fn(i);
    });
    check::close_launch(epoch);
  }

  /// for_each that also hands the body its worker id — for elementwise
  /// kernels that index per-worker state (decode buffers, partial
  /// sums). Same checker bookkeeping as for_each. fn(i, worker).
  template <typename F>
  void for_each_worker(std::size_t n, F&& fn) {
    const std::uint64_t epoch = check::open_launch(n);
    pool_->parallel_for(n, [epoch, &fn](std::size_t i, unsigned w) {
      check::TaskScope task_scope(epoch, i);
      fn(i, w);
    });
    check::close_launch(epoch);
  }

 private:
  DeviceConfig config_;
  Backend backend_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace glouvain::simt
