// `check` — a compute-sanitizer analogue for the software SIMT device.
//
// The GPU original is debugged with `cuda-memcheck` / `compute-sanitizer
// --tool racecheck`, which understand the CUDA execution model: thread
// blocks that cannot synchronize inside a launch, hash slots that must
// be claimed by exactly one CAS winner. TSan sees none of that — it
// trusts std::atomic_ref and is blind to "two tasks plain-wrote the
// same slot in one launch", a dominant failure mode of parallel
// Louvain.
//
// This header is the hook surface. Every function below compiles to an
// empty inline when GLOUVAIN_SIMTCHECK is not defined, so release
// builds carry zero instrumentation. Under `cmake --preset check` the
// hooks feed a process-global shadow map (registry.cpp):
//
//   * each instrumented address carries {launch epoch, task id, access
//     kind};
//   * conflicting access kinds from two tasks of one launch report a
//     race (plain/plain, plain/atomic, claim/claim);
//   * launch-contract breaches (nested launches, bucket-partition
//     overruns, workspace aliasing across threads) report directly.
//
// Violations accumulate in a registry; report() snapshots them as a
// check::Report with a util::Status surface, mirroring trace_check.
// The instrumented tests gate on it under `ctest -L simtcheck`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace glouvain::check {

/// True in GLOUVAIN_SIMTCHECK builds; constexpr so callers can
/// `if constexpr` entire instrumented blocks away.
constexpr bool enabled() noexcept {
#ifdef GLOUVAIN_SIMTCHECK
  return true;
#else
  return false;
#endif
}

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

enum class ViolationKind : std::uint8_t {
  kWriteWriteRace,    ///< two tasks plain-wrote one address in one launch
  kWriteAtomicRace,   ///< plain write raced an atomic access across tasks
  kDoubleClaim,       ///< one hash slot claimed by two winners in one launch
  kNestedLaunch,      ///< a task launched a kernel (in-launch synchronization)
  kWorkspaceAliased,  ///< one core::Workspace driven by two threads at once
  kContract,          ///< an asserted launch contract failed
};

const char* to_string(ViolationKind kind) noexcept;

/// One reported breach, with enough trace to find the kernel: launch
/// name as labelled by check::KernelScope, the launch epoch, the two
/// task ids involved, and the address.
struct Violation {
  ViolationKind kind = ViolationKind::kContract;
  std::string kernel;            ///< label of the launch that tripped it
  std::uint64_t epoch = 0;       ///< launch epoch of the tripping access
  std::size_t task_a = kNoIndex; ///< task performing the tripping access
  std::size_t task_b = kNoIndex; ///< task of the prior conflicting access
  std::uintptr_t address = 0;    ///< conflicting location (0 for contracts)
  std::string detail;            ///< human-readable specifics

  std::string to_string() const;
};

/// Snapshot of the registry: the retained violations (deduplicated per
/// {kind, epoch, task pair}; capped) plus the total including drops.
struct Report {
  std::vector<Violation> violations;
  std::uint64_t total = 0;  ///< all observed, including deduplicated ones

  bool clean() const noexcept { return total == 0; }
  std::string to_string() const;
  /// kOk when clean, kInternal with a one-line summary otherwise —
  /// the same Status surface the CLI and svc error paths use.
  util::Status to_status() const;
};

/// Always linkable (trivially empty when the checker is off).
Report report();
std::uint64_t violation_count() noexcept;
/// Drop all violations and shadow state (between test cases).
void reset();

// ---------------------------------------------------------------------
// Out-of-line implementation surface (registry.cpp). Do not call these
// directly; use the inline hooks below, which vanish when the checker
// is disabled.
namespace detail {

enum class Access : std::uint8_t {
  kInit,        ///< initialization write (table clear); never conflicts
  kPlainWrite,  ///< non-atomic store
  kPlainClaim,  ///< non-atomic claim of an empty hash slot
  kAtomic,      ///< atomic read-modify-write / load / store
  kCasClaim,    ///< successful CAS claim of a hash slot
};

void note(const void* addr, Access access) noexcept;
std::uint64_t open_launch(std::size_t tasks) noexcept;
void close_launch(std::uint64_t launch) noexcept;
void enter_task(std::uint64_t launch, std::size_t task,
                std::uint64_t& prev_launch, std::size_t& prev_task) noexcept;
void leave_task(std::uint64_t prev_launch, std::size_t prev_task) noexcept;
void set_kernel(const char* name, std::size_t index) noexcept;
void clear_kernel() noexcept;
bool acquire_workspace(const void* ws) noexcept;
void release_workspace(const void* ws) noexcept;
void fail_contract(const char* what) noexcept;

}  // namespace detail

// ---------------------------------------------------------------------
// Shadow-memory access notes (called by simt::atomics, the kernel
// bodies and the paper's hash table).

/// A non-atomic store to `addr` by the current task.
inline void note_plain_write(const void* addr) noexcept {
  if constexpr (enabled()) detail::note(addr, detail::Access::kPlainWrite);
}

/// A non-atomic claim of a previously-empty hash slot (the task-local
/// table's claim write). Two claims of one slot in one launch by
/// distinct tasks report kDoubleClaim.
inline void note_plain_claim(const void* addr) noexcept {
  if constexpr (enabled()) detail::note(addr, detail::Access::kPlainClaim);
}

/// An initialization write (hash-table clear). Refreshes the shadow
/// record without conflicting — and deliberately does NOT erase another
/// task's same-launch record, so a cleared-then-reclaimed slot still
/// reports the double claim.
inline void note_init(const void* addr) noexcept {
  if constexpr (enabled()) detail::note(addr, detail::Access::kInit);
}

/// An atomic access (add/min/max/load/store or a failed CAS).
inline void note_atomic(const void* addr) noexcept {
  if constexpr (enabled()) detail::note(addr, detail::Access::kAtomic);
}

/// A successful atomicCAS — the paper's slot-claim idiom. Two CAS
/// winners on one address in one launch report kDoubleClaim.
inline void note_cas_claim(const void* addr) noexcept {
  if constexpr (enabled()) detail::note(addr, detail::Access::kCasClaim);
}

/// Assert a launch contract; reports kContract when `ok` is false.
inline void contract(bool ok, const char* what) noexcept {
  if constexpr (enabled()) {
    if (!ok) detail::fail_contract(what);
  }
}

// ---------------------------------------------------------------------
// Launch bookkeeping (called by simt::Device).

/// Open a launch epoch; returns its id (0 when the checker is off).
/// Reports kNestedLaunch when called from inside a task.
inline std::uint64_t open_launch(std::size_t tasks) noexcept {
  if constexpr (enabled()) return detail::open_launch(tasks);
  return 0;
}

inline void close_launch([[maybe_unused]] std::uint64_t launch) noexcept {
  if constexpr (enabled()) detail::close_launch(launch);
}

/// Marks the calling thread as executing `task` of `launch` for the
/// scope's lifetime (nested scopes restore the outer task).
class TaskScope {
 public:
  TaskScope([[maybe_unused]] std::uint64_t launch,
            [[maybe_unused]] std::size_t task) noexcept {
    if constexpr (enabled()) detail::enter_task(launch, task, prev_launch_, prev_task_);
  }
  ~TaskScope() {
    if constexpr (enabled()) detail::leave_task(prev_launch_, prev_task_);
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  std::uint64_t prev_launch_ = 0;
  std::size_t prev_task_ = 0;
};

/// Driver-side label for the next launch(es), e.g.
/// `check::KernelScope scope("modopt/bucket", b);` — violations inside
/// those launches report the kernel as "modopt/bucket[b]".
class KernelScope {
 public:
  explicit KernelScope([[maybe_unused]] const char* name,
                       [[maybe_unused]] std::size_t index = kNoIndex) noexcept {
    if constexpr (enabled()) detail::set_kernel(name, index);
  }
  ~KernelScope() {
    if constexpr (enabled()) detail::clear_kernel();
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;
};

// ---------------------------------------------------------------------
// Workspace exclusivity (held by core phase drivers around their use of
// a core::Workspace). Two live guards for one workspace on different
// threads report kWorkspaceAliased — the svc contract that pooled
// device workers never share hot-path arenas across concurrent jobs.
class WorkspaceGuard {
 public:
  explicit WorkspaceGuard([[maybe_unused]] const void* ws) noexcept {
    if constexpr (enabled()) {
      ws_ = ws;
      owned_ = detail::acquire_workspace(ws);
    }
  }
  ~WorkspaceGuard() {
    if constexpr (enabled()) {
      if (owned_) detail::release_workspace(ws_);
    }
  }
  WorkspaceGuard(const WorkspaceGuard&) = delete;
  WorkspaceGuard& operator=(const WorkspaceGuard&) = delete;

 private:
  const void* ws_ = nullptr;
  bool owned_ = false;
};

}  // namespace glouvain::check
