// glint fixture: unpaired-launch, a scope-based check (not a line-
// proximity one). The first kernel has no obs::Span anywhere in its
// function; the second shows why proximity is wrong: a span WAS opened
// 10 lines above the launch, but its block closed before the launch
// runs, so nothing attributes the kernel — a proximity heuristic would
// have blessed it.
// NOT part of any build target; run with --expect-violations.
//
// Expected findings:
//   unpaired-launch  the span-less kernel in bad_naked_launch
//   unpaired-launch  the dead-span kernel in bad_closed_span_launch
// good_outer_span_launch must NOT be reported even though its span
// opens far more than 40 lines before the launch.

#include <cstddef>

#include "obs/obs.hpp"
#include "simt/device.hpp"

namespace glouvain::fixture {

// unpaired-launch: no span, no trace attribution.
inline void bad_naked_launch(simt::Device& device, int* out, std::size_t n) {
  device.launch(n, [&](simt::TaskContext& ctx) {
    out[ctx.task()] = static_cast<int>(ctx.task());
  });
}

// unpaired-launch: the span's scope ends before the launch — within 40
// lines, so the proximity heuristic used to bless this.
inline void bad_closed_span_launch(obs::Recorder* rec, simt::Device& device,
                                   int* out, std::size_t n) {
  {
    obs::Span setup_span(rec, "fixture/setup");
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
  }
  device.launch(n, [&](simt::TaskContext& ctx) {
    out[ctx.task()] += 1;
  });
}

// Clean: one span in an enclosing scope covers both launches, even
// with more than 40 lines of padding between them — the span is ALIVE,
// which is what actually matters.
inline void good_outer_span_launch(obs::Recorder* rec, simt::Device& device,
                                   int* out, std::size_t n) {
  obs::Span phase_span(rec, "fixture/phase");
  device.launch(n, [&](simt::TaskContext& ctx) {
    out[ctx.task()] = 1;
  });
  // ---- padding so the second launch sits >40 lines from the span ----
  // line 1
  // line 2
  // line 3
  // line 4
  // line 5
  // line 6
  // line 7
  // line 8
  // line 9
  // line 10
  // line 11
  // line 12
  // line 13
  // line 14
  // line 15
  // line 16
  // line 17
  // line 18
  // line 19
  // line 20
  // line 21
  // line 22
  // line 23
  // line 24
  // line 25
  // line 26
  // line 27
  // line 28
  // line 29
  // line 30
  // line 31
  // line 32
  // line 33
  // line 34
  // line 35
  // line 36
  // line 37
  // line 38
  // line 39
  // line 40
  // line 41
  // line 42
  device.launch(n, [&](simt::TaskContext& ctx) {
    out[ctx.task()] += 1;
  });
}

}  // namespace glouvain::fixture
