// Job vocabulary of the service layer: what a client submits (a graph
// plus JobOptions), the lifecycle it moves through (JobStatus), and
// what the client gets back (JobResult). Backends are named as the
// detect::make() registry names them.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/louvain.hpp"
#include "detect/options.hpp"
#include "util/status.hpp"

namespace glouvain::svc {

using JobId = std::uint64_t;
inline constexpr JobId kInvalidJob = 0;

/// Handle of a long-lived dynamic-graph session (Service::open_session).
using SessionId = std::uint64_t;
inline constexpr SessionId kInvalidSession = 0;

/// Lifecycle: Rejected / Cancelled / Expired / Failed / Completed are
/// terminal; Queued -> Running -> Completed is the happy path.
enum class JobStatus {
  Queued,
  Running,
  Completed,
  Cancelled,  ///< cancel() removed it before it ran
  Expired,    ///< deadline passed while still queued
  Rejected,   ///< queue was full at submit (backpressure)
  Failed,     ///< backend threw; JobResult::error has the message
};

inline bool is_terminal(JobStatus s) noexcept {
  return s != JobStatus::Queued && s != JobStatus::Running;
}

const char* to_string(JobStatus s) noexcept;

struct JobOptions {
  /// Higher runs first; ties run in submission order.
  int priority = 0;
  /// Deadline measured from submit(); a job still queued when it fires
  /// expires instead of running. Zero = no deadline. Jobs already
  /// running are never interrupted (admission deadline, not a kill).
  std::chrono::milliseconds deadline{0};
  /// A detect registry name ("core", "seq", "plm", "shard", or one
  /// added with detect::register_backend), or "auto": the cost router
  /// sends jobs whose n + m (from the CSR header) is at most
  /// ServiceConfig::seq_cost_limit to "seq" and the rest to "core".
  /// An unregistered name fails the job with the registry's message.
  std::string backend = "auto";
  /// Consult/populate the result cache for this job.
  bool use_cache = true;
  /// Per-job detection options; null = the service-wide defaults
  /// (ServiceConfig::options). The override participates in the result
  /// cache key exactly like the shared options do, so two jobs that
  /// differ only in, say, the partition seed never alias a cache entry.
  /// Its `threads` is ignored: every job runs at the service's
  /// options.threads. A job whose options carry a warm start neither
  /// reads nor fills the cache (the key does not see the seed).
  std::shared_ptr<const detect::Options> options = nullptr;
};

struct JobResult {
  JobStatus status = JobStatus::Queued;
  /// Set iff status == Completed. Shared with the cache: repeated
  /// submissions of the same graph receive the same object. For
  /// non-core backends, `device` holds zeroes.
  std::shared_ptr<const core::Result> result;
  /// Registry name of the backend that ran (or would have run) it;
  /// a session job reports its session's backend.
  std::string backend;
  bool cache_hit = false;
  double queue_seconds = 0;  ///< submit -> start (or terminal event)
  double run_seconds = 0;    ///< start -> finish, 0 for cache hits
  double total_seconds = 0;  ///< submit -> terminal, wall clock
  /// Order in which the service started running jobs (1-based); 0 for
  /// jobs that never ran. Exposes scheduling order to tests/benches.
  std::uint64_t start_sequence = 0;
  std::string error;  ///< set iff status == Failed
};

/// Map a terminal JobResult onto the shared Status vocabulary (so batch
/// clients and the CLI derive exit codes uniformly). Non-terminal
/// states report kFailedPrecondition.
inline util::Status to_status(const JobResult& r) {
  switch (r.status) {
    case JobStatus::Completed: return util::Status::ok_status();
    case JobStatus::Rejected:
      return util::Status::resource_exhausted("job rejected: queue full");
    case JobStatus::Expired:
      return util::Status::deadline_exceeded("job expired before running");
    case JobStatus::Cancelled: return util::Status::cancelled("job cancelled");
    case JobStatus::Failed:
      return util::Status::internal(r.error.empty() ? "backend failed"
                                                    : r.error);
    case JobStatus::Queued:
    case JobStatus::Running:
      return util::Status::failed_precondition("job not terminal");
  }
  return util::Status::internal("unknown job status");
}

}  // namespace glouvain::svc
