// Point-in-time service counters, the serving analogue of the
// per-run DeviceStats: one struct a monitoring loop can poll and diff.
#pragma once

#include <cstddef>
#include <cstdint>

namespace glouvain::svc {

struct Stats {
  // Admission.
  std::uint64_t submitted = 0;  ///< every submit() call
  std::uint64_t accepted = 0;   ///< queued (or completed from cache)
  std::uint64_t rejected = 0;   ///< backpressure: queue full at submit

  // Outcomes (accepted jobs reach exactly one of these).
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;  ///< deadline passed while queued
  std::uint64_t failed = 0;

  // Cache (service-level view; hits at submit never enter the queue).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;

  // Routing of accepted jobs.
  std::uint64_t ran_on_device = 0;  ///< core backend, pooled device
  std::uint64_t ran_sequential = 0; ///< degraded to the seq backend
  std::uint64_t ran_sharded = 0;    ///< shard backend, pooled device
  std::uint64_t ran_other = 0;      ///< plm / custom registry backends

  // Time accounting, summed over jobs (seconds).
  double queue_wait_seconds = 0;  ///< submit -> start, run jobs only
  double run_seconds = 0;         ///< backend execution time

  // Phase breakdown, aggregated from completed jobs' per-level reports
  // (the service-wide view of the obs phase table).
  double optimize_seconds = 0;   ///< summed modularity-optimization time
  double aggregate_seconds = 0;  ///< summed contraction time
  std::uint64_t levels_total = 0;  ///< hierarchy levels built
  std::uint64_t sweeps_total = 0;  ///< optimization sweeps executed

  // Device pool.
  unsigned devices = 0;         ///< pooled core::Louvain instances
  unsigned device_threads = 0;  ///< resolved options.threads

  // Dynamic-graph sessions.
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t deltas_applied = 0;  ///< ApplyDelta jobs completed

  // Instantaneous.
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  std::size_t sessions_open = 0;
};

}  // namespace glouvain::svc
