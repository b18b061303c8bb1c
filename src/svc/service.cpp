#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "simt/device_pool.hpp"
#include "svc/queue.hpp"
#include "util/timer.hpp"

namespace glouvain::svc {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

/// One dynamic-graph session. `session` (the mutable graph + warm
/// detector) is touched only by open_session() before publication and
/// by the pinned device worker afterwards — never under Impl::m. The
/// snapshot fields below it are guarded by Impl::m and exist so
/// session_info() never has to look at `session` itself.
struct Service::SessionState {
  explicit SessionState(stream::Session s) : session(std::move(s)) {}

  SessionId id = kInvalidSession;
  unsigned pinned = 0;   ///< device worker that runs this session's jobs
  int priority = 0;      ///< fixed priority of every ApplyDelta job
  graph::Fingerprint128 base_fp;  ///< fingerprint of the graph at epoch 0
  stream::Session session;

  // ---- guarded by Impl::m ----
  std::uint64_t epoch = 0;
  graph::VertexId num_vertices = 0;
  graph::EdgeIdx num_arcs = 0;
  double modularity = 0;
  std::size_t outstanding = 0;  ///< queued + running delta jobs
  std::uint64_t enqueued = 0;   ///< deltas ever admitted (epoch targets)
};

const char* to_string(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Completed: return "completed";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::Expired: return "expired";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::Failed: return "failed";
  }
  return "?";
}

/// One submitted job. Mutable fields are guarded by Impl::m except
/// while the owning worker runs the backend, during which the job is
/// in Running state and no other thread touches the run fields.
struct Service::Job {
  JobId id = kInvalidJob;
  JobOptions options;
  std::string routed;  ///< registry name of the backend that runs it
  std::shared_ptr<const graph::Csr> graph;  ///< released when terminal
  graph::Fingerprint128 fp;

  Clock::time_point submitted;
  Clock::time_point deadline;
  bool has_deadline = false;

  /// Set iff this is an ApplyDelta job; `delta` is consumed by the
  /// pinned worker and `target_epoch` is the session epoch the apply
  /// advances to (admission counts deltas, applies never skip).
  std::shared_ptr<SessionState> session;
  stream::Delta delta;
  std::uint64_t target_epoch = 0;

  JobStatus status = JobStatus::Queued;
  std::shared_ptr<const core::Result> result;
  bool cache_hit = false;
  double queue_seconds = 0;
  double run_seconds = 0;
  double total_seconds = 0;
  std::uint64_t start_sequence = 0;
  std::string error;
};

struct Service::Impl {
  explicit Impl(const ServiceConfig& cfg)
      : queue(cfg.queue_capacity), cache(cfg.cache_capacity) {}

  mutable std::mutex m;
  std::condition_variable cv_work;  ///< workers: queue / stop / resume
  std::condition_variable cv_done;  ///< waiters: job state changes

  bool paused = false;
  bool stopping = false;
  bool drain = true;
  JobId next_id = 1;
  std::uint64_t start_counter = 0;
  std::size_t running = 0;

  BoundedPriorityQueue<std::shared_ptr<Job>> queue;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs;
  std::unordered_map<SessionId, std::shared_ptr<SessionState>> sessions;
  SessionId next_session = 1;
  unsigned next_pin = 0;  ///< round-robin session -> device worker
  ResultCache cache;
  Stats counters;  ///< monotonic part; instantaneous fields unused here

  /// Pooled stateful detectors, one per device worker; each keeps its
  /// simt device warm across jobs. Only the owning worker touches its
  /// entry after construction.
  std::vector<std::unique_ptr<detect::Detector>> devices;
  std::vector<std::thread> threads;
};

Service::Service(const ServiceConfig& config)
    : config_(config), impl_(std::make_unique<Impl>(config)) {
  // A service with no device could never run a core-routed job.
  if (config_.devices == 0) config_.devices = 1;
  // Every pooled device, every shard-pool device and every job run at
  // this one thread count.
  if (config_.options.threads == 0) {
    config_.options.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  impl_->paused = config_.start_paused;

  // Shared device pool for concurrent shard rounds: every shard-routed
  // job's engine leases from this one pool (ext.shard carries it into
  // every detect::make()), so two concurrent sharded jobs split the
  // service's devices instead of each spawning a private shards-wide
  // pool.
  simt::DevicePoolConfig pc;
  pc.max_devices = config_.devices;
  pc.threads_per_device = config_.options.threads;
  pc.device.backend = config_.options.device;
  config_.ext.shard.device_pool = std::make_shared<simt::DevicePool>(pc);

  impl_->devices.reserve(config_.devices);
  for (unsigned d = 0; d < config_.devices; ++d) {
    auto made = detect::make("core", config_.ext);
    if (!made.ok()) {
      throw std::runtime_error("svc: cannot construct core detector: " +
                               made.status().to_string());
    }
    impl_->devices.push_back(std::move(made.value()));
  }

  const unsigned total = config_.devices + config_.aux_workers;
  impl_->threads.reserve(total);
  for (unsigned w = 0; w < total; ++w) {
    impl_->threads.emplace_back([this, w] { worker_loop(w); });
  }
}

Service::~Service() { shutdown(/*drain=*/true); }

JobId Service::submit(graph::Csr graph, const JobOptions& options) {
  const std::uint64_t cost = static_cast<std::uint64_t>(graph.num_vertices()) +
                             graph.num_arcs();
  auto job = std::make_shared<Job>();
  job->options = options;
  job->routed = options.backend != "auto"
                    ? options.backend
                    : (cost <= config_.seq_cost_limit ? "seq" : "core");
  job->graph = std::make_shared<const graph::Csr>(std::move(graph));

  // A warm-started job neither reads nor fills the cache: the key sees
  // the graph and the options, never the seed partition.
  const detect::Options& effective =
      options.options ? *options.options : config_.options;
  if (effective.warm_start) job->options.use_cache = false;

  // Fingerprint + cache probe outside the service lock: hashing is
  // O(n + m) and the cache has its own mutex.
  const bool caching = job->options.use_cache && config_.cache_capacity > 0;
  std::shared_ptr<const core::Result> cached;
  if (caching) {
    // The key folds the backend name and the quality-relevant options
    // in with the graph hash, so the same graph run by two backends
    // (or two threshold schedules — or two partition seeds, via a
    // per-job options override) never aliases.
    job->fp =
        job_key(graph::fingerprint128(*job->graph), job->routed, effective);
    cached = impl_->cache.get(job->fp);
  }

  job->submitted = Clock::now();
  job->has_deadline = options.deadline.count() > 0;
  if (job->has_deadline) job->deadline = job->submitted + options.deadline;

  std::lock_guard<std::mutex> lock(impl_->m);
  job->id = impl_->next_id++;
  impl_->jobs.emplace(job->id, job);
  ++impl_->counters.submitted;

  if (cached) {
    ++impl_->counters.accepted;
    ++impl_->counters.cache_hits;
    job->result = std::move(cached);
    job->cache_hit = true;
    finish(job, JobStatus::Completed);
  } else if (impl_->stopping || impl_->queue.full()) {
    ++impl_->counters.rejected;
    job->status = JobStatus::Rejected;
    job->graph.reset();
    impl_->cv_done.notify_all();
  } else {
    ++impl_->counters.accepted;
    impl_->queue.push(job->id, options.priority, job);
    impl_->cv_work.notify_all();
  }
  return job->id;
}

util::StatusOr<JobId> Service::try_submit(graph::Csr graph,
                                          const JobOptions& options) {
  const JobId id = submit(std::move(graph), options);
  if (poll(id) == JobStatus::Rejected) {
    wait(id);  // consume the record; Rejected is terminal, no block
    return util::Status::resource_exhausted(
        "svc: queue full, job rejected at admission");
  }
  return id;
}

JobStatus Service::poll(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->m);
  const auto it = impl_->jobs.find(id);
  return it == impl_->jobs.end() ? JobStatus::Cancelled : it->second->status;
}

JobResult Service::wait(JobId id) {
  std::unique_lock<std::mutex> lock(impl_->m);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) {
    JobResult missing;
    missing.status = JobStatus::Cancelled;
    return missing;
  }
  const std::shared_ptr<Job> job = it->second;

  while (!is_terminal(job->status)) {
    if (job->status == JobStatus::Queued && job->has_deadline) {
      // Expire from the waiter side: a queued job whose deadline fires
      // must not wait for a worker to discover it.
      if (impl_->cv_done.wait_until(lock, job->deadline) ==
              std::cv_status::timeout &&
          job->status == JobStatus::Queued && Clock::now() >= job->deadline) {
        impl_->queue.erase(job->id);
        finish(job, JobStatus::Expired);
      }
    } else {
      impl_->cv_done.wait(lock);
    }
  }

  JobResult result;
  result.status = job->status;
  result.result = job->result;
  result.backend = job->routed;
  result.cache_hit = job->cache_hit;
  result.queue_seconds = job->queue_seconds;
  result.run_seconds = job->run_seconds;
  result.total_seconds = job->total_seconds;
  result.start_sequence = job->start_sequence;
  result.error = job->error;
  impl_->jobs.erase(job->id);
  return result;
}

bool Service::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(impl_->m);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return false;
  if (it->second->session) return false;  // delta sequences are gapless
  if (!impl_->queue.erase(id)) return false;  // running or terminal
  finish(it->second, JobStatus::Cancelled);
  return true;
}

util::StatusOr<SessionId> Service::open_session(graph::Csr graph,
                                                stream::SessionOptions options,
                                                int priority) {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    if (impl_->stopping) {
      return util::Status::unavailable("svc: service is shutting down");
    }
  }

  // The epoch-0 fingerprint and the cold detection run on the calling
  // thread: both are O(graph) and need no service state. A session's
  // device runs at the service's one thread count, like every job.
  const graph::Fingerprint128 base = graph::fingerprint128(graph);
  options.options.threads = config_.options.threads;
  auto opened = stream::Session::open(std::move(graph), std::move(options));
  if (!opened.ok()) return opened.status();

  auto st = std::make_shared<SessionState>(std::move(opened).value());
  st->base_fp = base;
  st->priority = priority;
  st->num_vertices = st->session.graph().num_vertices();
  st->num_arcs = st->session.graph().num_arcs();
  st->modularity = st->session.result().modularity;

  std::lock_guard<std::mutex> lock(impl_->m);
  if (impl_->stopping) {
    return util::Status::unavailable("svc: service is shutting down");
  }
  st->id = impl_->next_session++;
  st->pinned = impl_->next_pin++ % static_cast<unsigned>(impl_->devices.size());
  impl_->sessions.emplace(st->id, st);
  ++impl_->counters.sessions_opened;
  return st->id;
}

util::StatusOr<JobId> Service::submit_delta(SessionId session,
                                            stream::Delta delta,
                                            bool use_cache) {
  auto job = std::make_shared<Job>();
  std::lock_guard<std::mutex> lock(impl_->m);
  const auto it = impl_->sessions.find(session);
  if (it == impl_->sessions.end()) {
    return util::Status::not_found("svc: unknown session " +
                                   std::to_string(session));
  }
  if (impl_->stopping) {
    return util::Status::unavailable("svc: service is shutting down");
  }
  ++impl_->counters.submitted;
  if (impl_->queue.full()) {
    ++impl_->counters.rejected;
    return util::Status::resource_exhausted(
        "svc: queue full, delta rejected at admission");
  }
  const std::shared_ptr<SessionState>& st = it->second;

  job->id = impl_->next_id++;
  job->session = st;
  job->delta = std::move(delta);
  job->routed = st->session.options().backend;
  job->options.priority = st->priority;
  job->options.use_cache = use_cache;
  job->submitted = Clock::now();
  job->target_epoch = ++st->enqueued;
  if (use_cache && config_.cache_capacity > 0) {
    job->fp = job_key(st->base_fp, job->routed,
                      st->session.options().options, st->id,
                      job->target_epoch);
  }
  ++st->outstanding;
  ++impl_->counters.accepted;
  impl_->jobs.emplace(job->id, job);
  impl_->queue.push(job->id, st->priority, job);
  impl_->cv_work.notify_all();
  return job->id;
}

util::Status Service::close_session(SessionId session) {
  std::lock_guard<std::mutex> lock(impl_->m);
  const auto it = impl_->sessions.find(session);
  if (it == impl_->sessions.end()) {
    return util::Status::not_found("svc: unknown session " +
                                   std::to_string(session));
  }
  if (it->second->outstanding > 0) {
    return util::Status::failed_precondition(
        "svc: session has " + std::to_string(it->second->outstanding) +
        " outstanding delta job(s)");
  }
  impl_->sessions.erase(it);
  ++impl_->counters.sessions_closed;
  return util::Status::ok_status();
}

util::StatusOr<Service::SessionInfo> Service::session_info(
    SessionId session) const {
  std::lock_guard<std::mutex> lock(impl_->m);
  const auto it = impl_->sessions.find(session);
  if (it == impl_->sessions.end()) {
    return util::Status::not_found("svc: unknown session " +
                                   std::to_string(session));
  }
  const SessionState& st = *it->second;
  SessionInfo info;
  info.id = st.id;
  info.backend = st.session.options().backend;
  info.epoch = st.epoch;
  info.num_vertices = st.num_vertices;
  info.num_arcs = st.num_arcs;
  info.modularity = st.modularity;
  info.pinned_worker = st.pinned;
  info.outstanding = st.outstanding;
  return info;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->paused = false;
  }
  impl_->cv_work.notify_all();
}

void Service::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stopping = true;
    impl_->paused = false;  // a paused backlog still drains
    impl_->drain = drain;
    if (!drain) {
      while (auto job = impl_->queue.pop()) {
        finish(*job, JobStatus::Cancelled);
      }
    }
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->threads) t.join();
  impl_->threads.clear();
}

Stats Service::stats() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  Stats s = impl_->counters;
  const ResultCache::Stats cs = impl_->cache.stats();
  s.cache_evictions = cs.evictions;
  s.cache_entries = cs.entries;
  s.queue_depth = impl_->queue.size();
  s.running = impl_->running;
  s.sessions_open = impl_->sessions.size();
  s.devices = static_cast<unsigned>(impl_->devices.size());
  s.device_threads = config_.options.threads;
  return s;
}

/// Terminal transition. Caller holds Impl::m.
void Service::finish(const std::shared_ptr<Job>& job, JobStatus status) {
  job->status = status;
  const auto now = Clock::now();
  job->total_seconds = seconds_between(job->submitted, now);
  switch (status) {
    case JobStatus::Completed: ++impl_->counters.completed; break;
    case JobStatus::Cancelled: ++impl_->counters.cancelled; break;
    case JobStatus::Expired:
      ++impl_->counters.expired;
      job->queue_seconds = job->total_seconds;
      break;
    case JobStatus::Failed: ++impl_->counters.failed; break;
    default: break;
  }
  job->graph.reset();
  if (job->session) {
    --job->session->outstanding;
    job->delta = stream::Delta{};  // the batch is dead weight once terminal
  }
  impl_->cv_done.notify_all();
}

void Service::worker_loop(unsigned index) {
  Impl& s = *impl_;
  // Workers [0, devices) each own one pooled stateful detector for
  // their lifetime; the rest are device-less auxiliary workers.
  detect::Detector* pooled =
      index < s.devices.size() ? s.devices[index].get() : nullptr;
  // Non-pooled backends are instantiated through the registry on first
  // use and cached per worker (detectors are single-threaded).
  std::map<std::string, std::unique_ptr<detect::Detector>, std::less<>> local;
  const auto detector_for =
      [&](const std::string& name) -> util::StatusOr<detect::Detector*> {
    if (name == "core" && pooled) return pooled;
    const auto it = local.find(name);
    if (it != local.end()) return it->second.get();
    auto made = detect::make(name, config_.ext);
    if (!made.ok()) return made.status();
    return local.emplace(name, std::move(made).value()).first->second.get();
  };
  const auto eligible = [pooled, index](const std::shared_ptr<Job>& job) {
    // ApplyDelta jobs only run on their session's pinned device worker
    // (one thread per session: applies serialize in submission order).
    if (job->session) return pooled != nullptr && index == job->session->pinned;
    // Aux workers only take jobs the cost router degraded off-device.
    return pooled != nullptr || job->routed == "seq";
  };

  std::unique_lock<std::mutex> lock(s.m);
  for (;;) {
    s.cv_work.wait(lock, [&] {
      if (s.stopping) return true;
      if (s.paused) return false;
      bool any = false;
      s.queue.for_each([&](const std::shared_ptr<Job>& j) {
        any = any || eligible(j);
      });
      return any;
    });
    if (s.stopping) {
      if (!s.drain) return;
      // Draining: leave once nothing this worker could ever run
      // remains (device-routed leftovers belong to device workers).
      bool mine = false;
      s.queue.for_each(
          [&](const std::shared_ptr<Job>& j) { mine = mine || eligible(j); });
      if (!mine) return;
    }

    auto popped = s.queue.pop_if(eligible);
    if (!popped) continue;
    const std::shared_ptr<Job> job = *popped;

    const auto now = Clock::now();
    if (job->has_deadline && now >= job->deadline) {
      finish(job, JobStatus::Expired);
      continue;
    }

    job->status = JobStatus::Running;
    job->start_sequence = ++s.start_counter;
    job->queue_seconds = seconds_between(job->submitted, now);
    ++s.running;
    const std::shared_ptr<const graph::Csr> graph = job->graph;
    lock.unlock();

    // ---- backend execution, no service lock held ----
    const bool caching = job->options.use_cache && config_.cache_capacity > 0;
    std::shared_ptr<const core::Result> result;
    bool from_cache = false;
    std::string error;
    util::Timer run_timer;
    try {
      if (job->session) {
        // ApplyDelta: this worker is the session's pinned (and only)
        // executor, so the stream::Session is touched lock-free. The
        // job's fp already encodes (session, target epoch).
        auto applied = job->session->session.apply(job->delta);
        if (!applied.ok()) {
          error = applied.status().to_string();
        } else {
          result = std::make_shared<core::Result>(
              job->session->session.result());
          if (caching) s.cache.put(job->fp, result);
        }
      } else {
        // Re-probe: a duplicate submission may have completed while
        // this one sat in the queue.
        if (caching) {
          result = s.cache.get(job->fp);
          from_cache = result != nullptr;
        }
        if (!result) {
          auto detector = detector_for(job->routed);
          if (!detector.ok()) {
            error = detector.status().to_string();
          } else {
            detect::Options opts = job->options.options
                                       ? *job->options.options
                                       : config_.options;
            // One device shape service-wide: a per-job override never
            // resizes a pooled device.
            opts.threads = config_.options.threads;
            result = std::make_shared<core::Result>(
                (*detector)->run(*graph, opts));
            if (caching) s.cache.put(job->fp, result);
          }
        }
      }
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown backend error";
    }
    const double run_seconds = run_timer.seconds();
    // -------------------------------------------------

    lock.lock();
    --s.running;
    job->run_seconds = run_seconds;
    if (!error.empty()) {
      job->error = std::move(error);
      finish(job, JobStatus::Failed);
      continue;
    }
    job->result = result;
    job->cache_hit = from_cache;
    if (job->session) {
      // Publish the post-delta snapshot for session_info(); this worker
      // is the only session mutator, so the reads are race-free.
      SessionState& ss = *job->session;
      ss.epoch = ss.session.epoch();
      ss.num_vertices = ss.session.graph().num_vertices();
      ss.num_arcs = ss.session.graph().num_arcs();
      ss.modularity = ss.session.result().modularity;
      ++s.counters.deltas_applied;
    }
    if (from_cache) {
      ++s.counters.cache_hits;
    } else {
      if (caching) ++s.counters.cache_misses;
      s.counters.run_seconds += run_seconds;
      s.counters.queue_wait_seconds += job->queue_seconds;
      for (const LevelReport& level : result->levels) {
        s.counters.optimize_seconds += level.optimize_seconds;
        s.counters.aggregate_seconds += level.aggregate_seconds;
        s.counters.sweeps_total += static_cast<std::uint64_t>(level.iterations);
        ++s.counters.levels_total;
      }
      s.counters.shared_spills += result->device.shared_spills;
      if (job->routed == "core") {
        ++s.counters.ran_on_device;
      } else if (job->routed == "seq") {
        ++s.counters.ran_sequential;
      } else if (job->routed == "shard") {
        ++s.counters.ran_sharded;
      } else {
        ++s.counters.ran_other;
      }
    }
    finish(job, JobStatus::Completed);
  }
}

}  // namespace glouvain::svc
