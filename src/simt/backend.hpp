// Execution backend of the software-SIMT device: which substrate the
// device's vector primitive runs on.
//
//   kScalar — every loop is plain scalar code. Bitwise-reference
//     semantics.
//   kVector — the same kernels, with the modularity evaluation's row
//     sums (vec::row_internal_weight) lowered to AVX2. It decides each
//     move as the scalar substrate does on the same state; only the
//     modularity row sums re-associate. Requires AVX2 at runtime; on a
//     machine without it the row sum transparently takes its scalar
//     emulation twin, so selecting kVector is always safe.
//   kAuto — resolve at device construction: kVector when the CPU
//     reports AVX2, kScalar otherwise.
//
// The enum is deliberately dependency-free: detect::Options embeds it,
// and options.hpp must stay below every backend.
#pragma once

#include <string_view>

namespace glouvain::simt {

enum class Backend {
  kScalar,
  kVector,
  kAuto,
};

constexpr const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kVector: return "vector";
    default: return "auto";
  }
}

/// Parse a backend name; returns false (and leaves `out` alone) on an
/// unknown name — callers turn that into the uniform exit-2 path.
inline bool parse_backend(std::string_view name, Backend& out) noexcept {
  if (name == "scalar") { out = Backend::kScalar; return true; }
  if (name == "vector") { out = Backend::kVector; return true; }
  if (name == "auto") { out = Backend::kAuto; return true; }
  return false;
}

/// True when the running CPU supports the AVX2 row sum. Probed
/// once (cpuid via __builtin_cpu_supports) and cached. The environment
/// variable GLOUVAIN_NO_AVX2, read at first call, forces false — the
/// CI fallback-dispatch smoke uses it to exercise the emulation path
/// on AVX2 hardware.
bool cpu_has_avx2() noexcept;

/// Collapse kAuto to the substrate this machine will actually run:
/// kVector when AVX2 is available, kScalar otherwise. kScalar and
/// kVector pass through unchanged (kVector without AVX2 still runs,
/// via the row sum's scalar emulation).
Backend resolve_backend(Backend requested) noexcept;

}  // namespace glouvain::simt
