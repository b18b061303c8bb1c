// A long-lived dynamic-graph session: owns the mutable graph, the
// latest partition, and a warm detector instance. Each apply() runs
// the delta pipeline
//
//   apply_delta  ->  warm-start detection from the touched endpoints
//
// and advances the session epoch. The epoch is the delta count since
// open(); the svc result cache folds it into its fingerprint so cached
// results never outlive a mutation.
//
//   auto s = stream::Session::open(graph);          // cold detection
//   auto rep = s->apply(delta);                     // warm re-detection
//   s->community(), s->result().modularity, ...
//
// A Session is single-threaded like the Detector it wraps; the service
// layer pins each session to one device worker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/workspace.hpp"
#include "detect/detector.hpp"
#include "detect/options.hpp"
#include "detect/result.hpp"
#include "graph/csr.hpp"
#include "stream/delta.hpp"
#include "util/status.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::stream {

struct SessionOptions {
  /// Detection backend for the initial run and every re-detection.
  /// "core" and "seq" have true warm paths; other backends fall back to
  /// a cold run per delta (correct, never stale).
  std::string backend = "core";
  detect::Options options;        ///< warm_start is managed by the session
  detect::Extensions extensions;  ///< backend-specific knobs
  /// false = full cold recompute on every delta (the baseline the
  /// warm-start speedup is measured against in bench/stream_updates).
  bool warm = true;
};

/// What one apply() did, for logging and the benchmark tables.
struct DeltaReport {
  std::uint64_t epoch = 0;         ///< session epoch after this delta
  std::size_t inserted = 0;        ///< edges added (undirected, once)
  std::size_t deleted = 0;         ///< edges removed
  std::size_t frontier_size = 0;   ///< touched endpoints: the vertices
                                   ///< the warm sweep may move
  double apply_seconds = 0;
  double frontier_seconds = 0;     ///< building the warm start
  double detect_seconds = 0;
  double modularity = 0;           ///< of the post-delta partition
};

class Session {
 public:
  /// Create a session and run the initial (cold) detection on `graph`.
  /// Fails with kInvalidArgument for an unknown backend.
  static util::StatusOr<Session> open(graph::Csr graph,
                                      SessionOptions options = {},
                                      obs::Recorder* recorder = nullptr);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Apply one delta batch: mutate the graph, then re-detect. The
  /// warm re-detection (unless options().warm is false) seeds level 0
  /// with the previous partition and lets only the delta's touched
  /// endpoints move there (DESIGN.md §9). A delta naming
  /// graph::kInvalidVertex fails with kInvalidArgument. On error the
  /// session is unchanged — same graph, partition and epoch.
  /// `recorder` (optional) receives stream/apply, stream/frontier and
  /// stream/detect spans with the detector's own tree nested inside.
  util::StatusOr<DeltaReport> apply(const Delta& delta,
                                    obs::Recorder* recorder = nullptr);

  const graph::Csr& graph() const noexcept { return graph_; }
  const detect::Result& result() const noexcept { return result_; }
  const std::vector<graph::Community>& community() const noexcept {
    return result_.community;
  }
  /// Deltas applied since open(). Folded into svc cache fingerprints.
  std::uint64_t epoch() const noexcept { return epoch_; }
  const SessionOptions& options() const noexcept { return options_; }

 private:
  Session(graph::Csr graph, SessionOptions options,
          std::unique_ptr<detect::Detector> detector);

  graph::Csr graph_;
  SessionOptions options_;
  std::unique_ptr<detect::Detector> detector_;
  detect::Result result_;
  std::uint64_t epoch_ = 0;
  /// Session-owned rebuild arena: delta after delta, apply_delta's
  /// temporaries and the replaced graph's arrays cycle through the
  /// same storage (the retired CSR feeds the next epoch's CSR).
  core::Workspace ws_;
};

}  // namespace glouvain::stream
