#include "simt/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace glouvain::simt {

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads ? threads : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n > 0 ? n - 1 : 0);
  for (unsigned w = 1; w < n; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

std::size_t ThreadPool::default_grain(std::size_t n) const noexcept {
  const std::size_t ideal = n / (8 * static_cast<std::size_t>(size()) + 1);
  return std::clamp<std::size_t>(ideal, 1, 4096);
}

void ThreadPool::run_chunks(unsigned worker_id) {
  for (;;) {
    const std::size_t begin = next_chunk_.fetch_add(job_grain_, std::memory_order_relaxed);
    if (begin >= job_n_) break;
    const std::size_t end = std::min(begin + job_grain_, job_n_);
    try {
      job_fn_(job_ctx_, begin, end, worker_id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(unsigned worker_id) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return generation_ != seen || shutdown_; });
      if (shutdown_) return;
      seen = generation_;
    }
    run_chunks(worker_id);
    if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      cv_done_.notify_one();
    }
  }
}

void ThreadPool::run_job(std::size_t n, std::size_t grain, RawChunkFn fn,
                         void* ctx) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);

  // Tiny invocations run inline on the caller.
  if (n <= grain || workers_.empty()) {
    fn(ctx, 0, n, 0);
    return;
  }
  // Nested invocations (a parallel loop launched from inside another
  // one) also run inline; the pool is single-occupancy by design.
  bool expected = false;
  if (!in_parallel_.compare_exchange_strong(expected, true)) {
    fn(ctx, 0, n, 0);
    return;
  }

  job_fn_ = fn;
  job_ctx_ = ctx;
  job_n_ = n;
  job_grain_ = grain;
  next_chunk_.store(0, std::memory_order_relaxed);
  active_.store(static_cast<unsigned>(workers_.size()), std::memory_order_relaxed);
  first_error_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
  }
  cv_start_.notify_all();

  run_chunks(0);  // the caller participates as worker 0

  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return active_.load(std::memory_order_acquire) == 0; });
  }
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
  // Take the error out before releasing the pool: the next caller's
  // job resets first_error_ as soon as it acquires in_parallel_.
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  in_parallel_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("GLOUVAIN_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<unsigned>(v);
    }
    return 0u;
  }());
  return pool;
}

}  // namespace glouvain::simt
