#include "stream/session.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "obs/recorder.hpp"
#include "stream/apply.hpp"
#include "util/timer.hpp"

namespace glouvain::stream {

using graph::Community;
using graph::VertexId;

Session::Session(graph::Csr graph, SessionOptions options,
                 std::unique_ptr<detect::Detector> detector)
    : graph_(std::move(graph)),
      options_(std::move(options)),
      detector_(std::move(detector)) {}

util::StatusOr<Session> Session::open(graph::Csr graph, SessionOptions options,
                                      obs::Recorder* recorder) {
  options.options.warm_start.reset();  // the session drives warm starts
  auto detector = detect::make(options.backend, options.extensions);
  if (!detector.ok()) return detector.status();
  Session session(std::move(graph), std::move(options),
                  std::move(detector).value());
  try {
    obs::Span span(recorder, "stream/detect");
    session.result_ = session.detector_->run(session.graph_,
                                             session.options_.options,
                                             recorder);
  } catch (const std::exception& e) {
    return util::Status::internal(std::string("initial detection failed: ") +
                                  e.what());
  }
  return session;
}

util::StatusOr<DeltaReport> Session::apply(const Delta& delta,
                                           obs::Recorder* recorder) {
  // apply_delta grows the graph to `id + 1`; try_load_deltas applies
  // the same rule to files.
  for (const auto* edges : {&delta.insertions, &delta.deletions}) {
    for (const graph::Edge& e : *edges) {
      if (!graph::fits_vertex_id(e.u) || !graph::fits_vertex_id(e.v)) {
        return util::Status::invalid_argument(
            "delta names vertex id " + std::to_string(graph::kInvalidVertex) +
            ", which exceeds the 32-bit vertex-id space");
      }
    }
  }
  DeltaReport report;
  util::Timer timer;

  ApplyResult applied;
  {
    obs::Span span(recorder, "stream/apply");
    applied = apply_delta(graph_, delta, ws_);
  }
  report.apply_seconds = timer.seconds();
  report.inserted = applied.inserted;
  report.deleted = applied.deleted;
  if (recorder) {
    recorder->count("stream/touched",
                    static_cast<double>(applied.touched.size()));
  }

  // Nothing changed and nothing could have: keep the partition as-is.
  // (A no-op deletion still touches its endpoints, so only a literally
  // empty delta lands here.)
  if (applied.touched.empty() &&
      applied.graph.num_vertices() == graph_.num_vertices()) {
    ++epoch_;
    report.epoch = epoch_;
    report.modularity = result_.modularity;
    return report;
  }

  detect::Options opts = options_.options;
  if (options_.warm) {
    auto warm = std::make_shared<detect::WarmStart>();
    timer.reset();
    {
      obs::Span span(recorder, "stream/frontier");
      warm->frontier = compute_frontier(applied.graph, result_.community,
                                        applied.touched, options_.frontier);
    }
    report.frontier_seconds = timer.seconds();
    report.frontier_size = warm->frontier.size();
    if (recorder) {
      recorder->count("stream/frontier_size",
                      static_cast<double>(warm->frontier.size()));
    }

    // Seed = previous partition, padded with fresh singleton labels for
    // vertices the delta created. Detector labels are dense in
    // [0, k), k <= old n, so a new vertex's own id can never collide.
    const std::size_t n_new = applied.graph.num_vertices();
    warm->seed.resize(n_new);
    std::copy(result_.community.begin(), result_.community.end(),
              warm->seed.begin());
    for (std::size_t v = result_.community.size(); v < n_new; ++v) {
      warm->seed[v] = static_cast<Community>(v);
    }
    opts.warm_start = std::move(warm);
  }

  timer.reset();
  detect::Result next;
  try {
    obs::Span span(recorder, "stream/detect");
    next = detector_->run(applied.graph, opts, recorder);
  } catch (const std::exception& e) {
    return util::Status::internal(std::string("re-detection failed: ") +
                                  e.what());
  }
  report.detect_seconds = timer.seconds();

  // Retire the replaced graph into the workspace pools: its arrays
  // become the next epoch's CSR without new heap blocks.
  graph::Csr retired = std::move(graph_);
  graph_ = std::move(applied.graph);
  ws_.recycle(std::move(retired));
  ws_.put(std::move(applied.touched));
  result_ = std::move(next);
  ++epoch_;
  report.epoch = epoch_;
  report.modularity = result_.modularity;
  return report;
}

}  // namespace glouvain::stream
