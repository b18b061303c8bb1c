// The concurrent community-detection service: multiplexes a stream of
// detection jobs over a pool of reusable detect::Detector instances.
//
//   svc::Service service({.devices = 2});
//   svc::JobId id = service.submit(std::move(graph), {.priority = 3});
//   ...
//   svc::JobResult r = service.wait(id);   // r.result->community, ...
//
// Pipeline (see DESIGN.md "Serving"): submit() fingerprints the graph,
// consults the LRU result cache (a hit completes immediately), applies
// admission control (reject when the bounded priority queue is full),
// and routes by estimated cost — tiny graphs go to the sequential
// backend so they never occupy a simt device. Worker threads — one
// permanently bound to each pooled "core" detector (whose simt device
// + workspace stay warm across jobs), plus `aux_workers` device-less
// workers that only take sequential jobs — pop jobs in priority order,
// expire those whose deadline passed while queued, run the job's
// backend through the detect::make() registry (no per-backend dispatch
// here), publish the result, and feed the cache.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "detect/detector.hpp"
#include "graph/csr.hpp"
#include "stream/delta.hpp"
#include "stream/session.hpp"
#include "svc/cache.hpp"
#include "svc/job.hpp"
#include "svc/stats.hpp"
#include "util/status.hpp"

namespace glouvain::svc {

struct ServiceConfig {
  /// Pooled "core" detectors; each gets a dedicated worker thread that
  /// reuses the instance (device + workspace) across jobs.
  unsigned devices = 2;
  /// Extra device-less workers that only run sequential-backend jobs,
  /// so degraded tiny jobs do not wait behind device-sized ones.
  unsigned aux_workers = 1;
  /// Pending-job bound; submit() rejects beyond it (backpressure).
  std::size_t queue_capacity = 64;
  /// Result-cache entries (0 disables caching).
  std::size_t cache_capacity = 32;
  /// "auto" degradation threshold: jobs with n + m at or below this
  /// run on the sequential backend.
  std::uint64_t seq_cost_limit = 1u << 13;
  /// Workers do not start picking up jobs until resume() — lets tests
  /// and batch clients stage a queue deterministically.
  bool start_paused = false;

  /// Shared algorithm options handed to every backend. `threads` is
  /// the simt worker count of every pooled device (0 = hardware
  /// concurrency) and is pinned for every job, per-job overrides
  /// included.
  detect::Options options;
  /// Backend-specific extension knobs forwarded to detect::make(). The
  /// service sets ext.shard.device_pool to its own shard pool.
  detect::Extensions ext;
};

class Service {
 public:
  explicit Service(const ServiceConfig& config = {});

  /// Drains: queued jobs still run, then workers join. Use
  /// shutdown(false) first to discard the backlog instead.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admit a job. Always returns a valid id whose status reports the
  /// outcome: Rejected under backpressure, Completed for a cache hit,
  /// Queued otherwise. The graph is owned by the service until the
  /// job reaches a terminal state.
  JobId submit(graph::Csr graph, const JobOptions& options = {});

  /// Status-reporting admission: backpressure comes back as
  /// kResourceExhausted (no job record is left behind) instead of a
  /// Rejected job the caller must wait() on.
  [[nodiscard]] util::StatusOr<JobId> try_submit(
      graph::Csr graph, const JobOptions& options = {});

  /// Current status, without blocking. Unknown ids (including ids
  /// already consumed by wait()) report Cancelled.
  JobStatus poll(JobId id) const;

  /// Block until the job is terminal and consume its record. Honors
  /// the job's deadline: a queued job whose deadline fires during the
  /// wait is expired from here. One waiter per job.
  JobResult wait(JobId id);

  /// Remove a still-queued job. False once it is running or terminal.
  /// ApplyDelta jobs are never cancellable — a session's delta sequence
  /// must apply gaplessly or its epoch bookkeeping would lie.
  bool cancel(JobId id);

  // ---- Dynamic-graph sessions (the stream subsystem, served) ----
  //
  //   auto sid = service.open_session(std::move(graph));
  //   auto jid = service.submit_delta(*sid, delta);
  //   auto r = service.wait(*jid);          // r.result = post-delta partition
  //   service.close_session(*sid);
  //
  // Each session wraps a stream::Session (mutable graph + warm
  // detector) and is pinned to one device worker; its ApplyDelta jobs
  // only run there, in submission order, so epochs advance gaplessly.
  // Cached delta results are keyed on (graph, backend, options,
  // session, epoch) — see svc::job_key — so they never outlive a
  // mutation and two backends or sessions never alias.

  /// Create a session; runs the initial cold detection synchronously on
  /// the calling thread. `priority` is the fixed priority of every
  /// ApplyDelta job of this session (per-delta priorities would let the
  /// queue reorder a session's deltas). options.options.threads is
  /// replaced by the service's.
  [[nodiscard]] util::StatusOr<SessionId> open_session(
      graph::Csr graph, stream::SessionOptions options = {},
      int priority = 0);

  /// Queue one delta batch (job kind ApplyDelta). The returned JobId
  /// supports poll()/wait() like any other job; its JobResult::result
  /// holds the post-delta partition of the whole graph.
  [[nodiscard]] util::StatusOr<JobId> submit_delta(
      SessionId session, stream::Delta delta, bool use_cache = true);

  /// Close an idle session. kFailedPrecondition while delta jobs are
  /// still queued or running; wait() on them first.
  [[nodiscard]] util::Status close_session(SessionId session);

  struct SessionInfo {
    SessionId id = kInvalidSession;
    std::string backend;
    std::uint64_t epoch = 0;        ///< deltas applied so far
    graph::VertexId num_vertices = 0;
    graph::EdgeIdx num_arcs = 0;
    double modularity = 0;          ///< of the latest partition
    unsigned pinned_worker = 0;     ///< device worker the session runs on
    std::size_t outstanding = 0;    ///< queued + running delta jobs
  };
  [[nodiscard]] util::StatusOr<SessionInfo> session_info(SessionId session) const;

  /// Release paused workers (see ServiceConfig::start_paused).
  void resume();

  /// Stop workers; drain=true finishes the backlog first, drain=false
  /// cancels every queued job. Idempotent. Called by the destructor.
  void shutdown(bool drain = true);

  Stats stats() const;
  /// The configuration as the service runs it: `devices` at least 1,
  /// `options.threads` resolved, ext.shard.device_pool its shard pool.
  const ServiceConfig& config() const noexcept { return config_; }

 private:
  struct Job;
  struct SessionState;

  void worker_loop(unsigned index);
  void finish(const std::shared_ptr<Job>& job, JobStatus status);

  ServiceConfig config_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace glouvain::svc
