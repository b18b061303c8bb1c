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

  // Nothing changed: the delta touched no vertex (it was empty, or
  // every entry was ignored). A graph only grows through an insertion,
  // whose endpoints are touched, so the graph is the same one.
  if (applied.touched.empty()) {
    ++epoch_;
    report.epoch = epoch_;
    report.modularity = result_.modularity;
    return report;
  }

  detect::Options opts = options_.options;
  if (options_.warm) {
    // Only vertices whose neighbourhood changed may move at level 0;
    // everything else keeps its community until aggregation. Every
    // vertex an insertion creates is touched; one the delta creates
    // without naming it has degree 0 and cannot move anyway.
    auto warm = std::make_shared<detect::WarmStart>();
    timer.reset();
    {
      obs::Span span(recorder, "stream/frontier");
      // A copy, so the touched list can return to the rebuild arena.
      warm->frontier = applied.touched;
      // Seed = previous partition, padded with fresh singleton labels
      // for vertices the delta created. Detector labels are dense in
      // [0, k), k <= old n, so a new vertex's own id can never collide.
      const std::size_t n_new = applied.graph.num_vertices();
      warm->seed.resize(n_new);
      std::copy(result_.community.begin(), result_.community.end(),
                warm->seed.begin());
      for (std::size_t v = result_.community.size(); v < n_new; ++v) {
        warm->seed[v] = static_cast<Community>(v);
      }
    }
    report.frontier_seconds = timer.seconds();
    report.frontier_size = warm->frontier.size();
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
