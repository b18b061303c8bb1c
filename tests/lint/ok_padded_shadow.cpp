// glint fixture that must stay CLEAN under arena-escape. NOT part of
// any build target; the `glint_clean_padded_shadow` ctest runs glint on
// it without --expect-violations, so any finding fails the test.
//
// A cache-line padded struct (`struct alignas(64) X {`) is a class like
// any other: its members are not namespace-scope globals. And a name a
// function declares — a parameter, or a local declared before the
// store — shadows a global or member of that name: storing an arena
// span into it is no escape.

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/workspace.hpp"

namespace glouvain::fixture {

struct alignas(64) LaneCounters {
  std::uint64_t active = 0;
  std::uint64_t slots = 0;
};

std::span<std::uint32_t> order;  // a real global, never stored into here

inline std::size_t first_active(core::Workspace& ws,
                                std::span<const std::uint32_t> active,
                                std::size_t n) {
  if (active.empty()) {
    auto all = ws.buffer<std::uint32_t>(core::Workspace::Slot::kModoptActive, n);
    for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<std::uint32_t>(v);
    active = {all.data(), all.size()};
  }
  std::span<std::uint32_t> order;
  order = ws.buffer<std::uint32_t>(core::Workspace::Slot::kModoptOrder, n);
  return active.size() + order.size();
}

}  // namespace glouvain::fixture
