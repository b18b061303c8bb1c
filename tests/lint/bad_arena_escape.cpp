// glint fixture: kernel-lifetime (arena escape). Workspace-backed spans
// stored into a member, a static, and a global — all three outlive the
// phase that drew them, while the workspace hands the slot to its next
// user and regrows it on a larger request, the exact stale-pointer
// class arena-escape exists to catch. NOT part of any build target; run
// with --expect-violations.
//
// Expected findings:
//   arena-escape  the member store in BadCache::fill
//   arena-escape  the static store in bad_static_stash
//   arena-escape  the global store in bad_global_stash
// The phase-local use at the bottom must NOT be reported.

#include <cstddef>
#include <span>

#include "core/workspace.hpp"
#include "simt/device.hpp"

namespace glouvain::fixture {

using Slot = core::Workspace::Slot;

std::span<int> g_leaked_row;

class BadCache {
 public:
  // arena-escape: the workspace slot goes to its next user after this
  // phase; the member span still points at it.
  void fill(simt::Device& device, core::Workspace& ws, std::size_t n) {
    cached_row_ = ws.buffer<int>(Slot::kAggFlags, n);
    device.launch(1, [&](simt::TaskContext&) {
      for (std::size_t i = 0; i < n; ++i) cached_row_[i] = 0;
    });
  }

  std::span<int> row() const { return cached_row_; }

 private:
  std::span<int> cached_row_;
};

// arena-escape: a static outlives every phase by definition.
inline int* bad_static_stash(core::Workspace& ws, std::size_t n) {
  static std::span<int> stash;
  stash = ws.buffer<int>(Slot::kAggFlags, n);
  return stash.data();
}

// arena-escape: namespace-scope globals, same story.
inline void bad_global_stash(core::Workspace& ws, std::size_t n) {
  g_leaked_row = ws.buffer<int>(Slot::kAggFlags, n);
}

// Clean: the span never leaves the phase, which is the contract.
inline long good_local_use(core::Workspace& ws, std::size_t n) {
  auto row = ws.buffer<long>(Slot::kAggFlags, n);
  long sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = static_cast<long>(i);
    sum += row[i];
  }
  return sum;
}

}  // namespace glouvain::fixture
