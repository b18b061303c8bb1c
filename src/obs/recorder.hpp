// Phase/kernel instrumentation substrate (the measurement layer behind
// the paper's Figures 4-7 and Table 1 breakdowns). A Recorder collects
//
//   * SPANS   — monotonic scoped timers forming a tree: one span per
//               phase ("modopt", "aggregate"), per sweep, and per
//               degree-bucket kernel launch, each tagged with the
//               hierarchy level it ran at;
//   * COUNTERS — named scalars, optionally binned (bucket occupancy
//               histograms, moved-vertex fractions per sweep, sweep
//               counts).
//
// Recording is enabled by passing a Recorder* into a detector run and
// disabled by passing nullptr: every instrumentation site goes through
// the obs::Span guard or a `if (rec)` check, so the disabled cost is a
// pointer test — no clock reads, no allocation (the <3% svc latency
// budget of ISSUE 2).
//
// A Recorder is single-threaded by design: spans are recorded on the
// driver thread at kernel-launch granularity (launch-to-sync wall
// time, exactly what CUDA events would measure per kernel), never from
// inside worker lanes. Concurrent runs each get their own Recorder.
//
// Concurrent EXECUTION inside one run (the sharded backend's Jacobi
// rounds, where k shard sweeps overlap on k leased devices) is still
// recorded from the driver thread: each task captures its own steady
// clock stamps and the driver inserts them at the round barrier via
// add_timed_span(), tagged with a nonzero TRACK (the device lane).
// Tracks map to chrome-trace tids so the trace shows true overlap, and
// validate() exempts nonzero tracks from the sibling-sum check (they
// deliberately overlap) while still requiring parent containment.
//
// Exporters: write_phase_table() renders the per-level x per-stage
// breakdown (the Figure 5/6 shape); write_chrome_trace() emits a
// chrome://tracing-compatible JSON span dump (schema in
// schemas/trace.schema.json) — `glouvain detect --trace out.json`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace glouvain::obs {

/// One closed (or still-open) timed interval. Times are nanoseconds on
/// the steady clock, relative to the Recorder's construction.
struct SpanRecord {
  std::uint32_t name = 0;        ///< index into Recorder::names()
  std::int32_t parent = -1;      ///< index into spans(), -1 = root
  std::int32_t level = -1;       ///< hierarchy level, -1 = outside levels
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = -1; ///< -1 while open
  /// Execution track (chrome-trace tid): 0 = the driver thread, else
  /// the 1-based device lane a concurrently-executed span ran on.
  std::uint32_t track = 0;
};

/// One named (optionally binned) scalar. Repeated count() calls with
/// the same (name, level, bin) accumulate into one record.
struct CounterRecord {
  std::uint32_t name = 0;
  std::int32_t level = -1;
  std::int64_t bin = -1;  ///< -1 = unbinned; else bucket/sweep index
  double value = 0;
};

class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Open a span as a child of the innermost open span. Returns the
  /// span index to pass to end_span. Prefer the obs::Span RAII guard.
  std::size_t begin_span(std::string_view name);
  void end_span(std::size_t index);

  /// Insert an already-measured CLOSED span as a child of the innermost
  /// open span — the barrier-time publication of a concurrently
  /// executed task's interval (see the header comment). `start_ns` is
  /// relative to the Recorder epoch (convert a raw steady-clock stamp
  /// with elapsed_ns()); `track` should be nonzero so validate() knows
  /// siblings on other tracks may overlap it.
  std::size_t add_timed_span(std::string_view name, std::int64_t start_ns,
                             std::int64_t duration_ns, std::uint32_t track);

  /// Nanoseconds since the Recorder epoch on the steady clock — the
  /// time base of every SpanRecord, exposed so concurrent tasks' raw
  /// stamps can be rebased for add_timed_span.
  std::int64_t elapsed_ns() const noexcept { return now_ns(); }

  /// Hierarchy level attached to subsequently opened spans/counters.
  void set_level(int level) noexcept { level_ = level; }
  int current_level() const noexcept { return level_; }

  /// Accumulate `delta` into counter (name, current level, bin).
  void count(std::string_view name, double delta, std::int64_t bin = -1);

  /// Keep the maximum of `value` and the counter's current value —
  /// high-water marks (arena footprints) rather than running sums.
  void count_max(std::string_view name, double value, std::int64_t bin = -1);

  /// Drop all recorded data (names are kept interned).
  void clear();

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  const std::vector<CounterRecord>& counters() const noexcept { return counters_; }
  std::string_view name(std::uint32_t id) const noexcept { return names_[id]; }

  /// Total recorded wall time: sum of root-span durations (seconds).
  double recorded_seconds() const noexcept;

  /// Structural check used by the conformance suite: every span closed
  /// with a non-negative duration, children nested inside their parent,
  /// and sibling durations summing to at most the parent's. Returns an
  /// empty string when well-formed, else a description of the problem.
  std::string validate() const;

  /// Per-level x per-stage table (the Figure 5/6/7 shape), followed by
  /// the counter table when any counters were recorded.
  void write_phase_table(std::ostream& os) const;

  /// chrome://tracing "complete event" JSON (see schemas/trace.schema.json).
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::uint32_t intern(std::string_view name);
  std::int64_t now_ns() const noexcept;

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
  std::vector<CounterRecord> counters_;
  std::map<std::tuple<std::uint32_t, std::int32_t, std::int64_t>, std::size_t>
      counter_index_;
  int level_ = -1;
  std::int64_t epoch_ns_ = 0;
};

/// RAII span guard tolerant of a null recorder (the disabled path).
class Span {
 public:
  Span(Recorder* recorder, std::string_view name) : recorder_(recorder) {
    if (recorder_) index_ = recorder_->begin_span(name);
  }
  ~Span() {
    if (recorder_) recorder_->end_span(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder* recorder_;
  std::size_t index_ = 0;
};

}  // namespace glouvain::obs
