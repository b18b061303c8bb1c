// glint fixture for the device-contract rules. It is intentionally NOT
// part of any build target — it exists so the `glint_fixture_kernel`
// ctest (run with --expect-violations) fails if glint rots and stops
// catching these. The ctest pins the total: 8 findings.
//
// Expected findings:
//   raw-atomic     2: the <atomic> include and the std::atomic global
//   raw-intrinsic  3: the <immintrin.h> include, the __m256i signature
//                  and the _mm256 gather
//   seq-cst        1: the memory_order_seq_cst load
//   kernel-alloc   2: the push_back and the new inside the launch body
// The suppressed std::atomic at the end must NOT be reported.
// (unpaired-launch, which the span-less launch below also trips, has
// its own fixture: tests/lint/bad_unpaired_launch.cpp.)

#include <atomic>
#include <cstddef>
#include <immintrin.h>
#include <vector>

#include "simt/device.hpp"

namespace glouvain::fixture {

std::atomic<int> g_bad_counter{0};  // raw-atomic: should use simt::atomic_*

// raw-intrinsic: vector code outside src/simt/ must use simt::vec.
inline __m256i bad_gather(const int* table, __m256i idx) {
  return _mm256_i32gather_epi32(table, idx, 4);
}

inline int bad_seq_cst_read() {
  return g_bad_counter.load(std::memory_order_seq_cst);  // seq-cst
}

inline void bad_kernel(simt::Device& device, std::vector<int>& sink) {
  device.launch(64, [&](simt::TaskContext& ctx) {
    sink.push_back(static_cast<int>(ctx.task()));  // kernel-alloc: growth
    int* leak = new int(static_cast<int>(ctx.task()));  // kernel-alloc: new
    delete leak;
  });
}

// Suppression escape hatch — this one is deliberate and must stay
// invisible to the linter.
std::atomic<int> g_allowed{0};  // glint: allow(raw-atomic)

}  // namespace glouvain::fixture
