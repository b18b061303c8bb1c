// Shadow-memory registry behind check.hpp. One process-global instance:
// the software device may be multiplied (svc device pool), but launch
// epochs are allocated from one counter, so accesses from concurrent
// jobs on different devices can never be confused for same-launch
// conflicts.
//
// Concurrency model: instrumented accesses run on pool worker threads.
// The shadow map is sharded 64 ways by address hash; each shard is a
// mutex + open hash map, so the checker serializes conflicting notes
// even when the underlying (buggy) accesses race — the record it keeps
// is coherent no matter how the data race interleaved. Everything here
// is slow-path-only code: it exists to be correct and informative, not
// fast, and it is compiled into the hot functions only under
// GLOUVAIN_SIMTCHECK.
#include "check/check.hpp"

#include <atomic>  // glint: allow(raw-atomic) — checker infrastructure
#include <cstdio>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

namespace glouvain::check {

const char* to_string(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kWriteWriteRace: return "write-write race";
    case ViolationKind::kWriteAtomicRace: return "plain/atomic race";
    case ViolationKind::kDoubleClaim: return "double slot claim";
    case ViolationKind::kNestedLaunch: return "nested launch";
    case ViolationKind::kWorkspaceAliased: return "workspace aliased";
    case ViolationKind::kContract: return "contract violation";
  }
  return "?";
}

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "[simtcheck] " << check::to_string(kind) << ": kernel " << kernel;
  if (epoch) os << " (epoch " << epoch << ")";
  if (task_a != kNoIndex) {
    os << " task " << task_a;
    if (task_b != kNoIndex && task_b != task_a) os << " vs task " << task_b;
  }
  if (address) os << " at 0x" << std::hex << address << std::dec;
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

std::string Report::to_string() const {
  if (clean()) return "[simtcheck] clean: no races or contract violations\n";
  std::ostringstream os;
  os << "[simtcheck] " << total << " violation(s)";
  if (violations.size() < total) {
    os << " (" << violations.size() << " retained after dedup)";
  }
  os << "\n";
  for (const Violation& v : violations) os << "  " << v.to_string() << "\n";
  return os.str();
}

util::Status Report::to_status() const {
  if (clean()) return util::Status::ok_status();
  std::string first = violations.empty() ? "" : violations.front().to_string();
  return util::Status::internal("simtcheck: " + std::to_string(total) +
                                " violation(s); first: " + first);
}

namespace {

using detail::Access;

struct Cell {
  std::uint64_t epoch = 0;
  std::uint32_t task = 0;
  Access access = Access::kInit;
};

struct Shard {
  std::mutex mu;
  std::unordered_map<std::uintptr_t, Cell> cells;
};

struct WorkspaceOwner {
  std::thread::id owner;
  int depth = 0;
};

constexpr std::size_t kShards = 64;
constexpr std::size_t kMaxRetained = 256;

struct State {
  // Launch bookkeeping.
  std::atomic<std::uint64_t> next_epoch{1};  // glint: allow(raw-atomic)
  std::mutex launches_mu;
  std::unordered_map<std::uint64_t, std::string> launch_labels;

  // Shadow cells.
  Shard shards[kShards];

  // Workspace exclusivity.
  std::mutex ws_mu;
  std::unordered_map<const void*, WorkspaceOwner> workspaces;

  // Violations.
  std::mutex v_mu;
  std::vector<Violation> violations;
  std::set<std::tuple<std::uint8_t, std::uint64_t, std::size_t, std::size_t>>
      dedup;
  std::atomic<std::uint64_t> total{0};  // glint: allow(raw-atomic)
};

State& state() {
  static State* s = new State();  // leaked: outlives static-dtor order
  return *s;
}

thread_local std::uint64_t t_launch = 0;
thread_local std::size_t t_task = 0;
thread_local const char* t_kernel = nullptr;
thread_local std::size_t t_kernel_index = kNoIndex;

Shard& shard_for(std::uintptr_t addr) {
  // Mix the address so adjacent elements spread across shards.
  std::uintptr_t h = addr >> 3;
  h ^= h >> 17;
  return state().shards[h & (kShards - 1)];
}

std::string label_of(std::uint64_t launch) {
  State& s = state();
  std::lock_guard lock(s.launches_mu);
  auto it = s.launch_labels.find(launch);
  return it == s.launch_labels.end() ? std::string("kernel") : it->second;
}

void record(Violation v) {
  State& s = state();
  s.total.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(s.v_mu);
  const auto key = std::make_tuple(static_cast<std::uint8_t>(v.kind), v.epoch,
                                   v.task_a, v.task_b);
  if (!s.dedup.insert(key).second) return;
  std::fputs((v.to_string() + "\n").c_str(), stderr);
  if (s.violations.size() < kMaxRetained) s.violations.push_back(std::move(v));
}

/// Conflict matrix for two accesses to one address by DISTINCT tasks of
/// one launch. kInit never conflicts: a
/// table clear is initialization, and the races it could mask resurface
/// at the claim/accumulate that follows.
ViolationKind conflict(Access prev, Access cur, bool& is_conflict) {
  is_conflict = true;
  const auto plain = [](Access a) {
    return a == Access::kPlainWrite || a == Access::kPlainClaim;
  };
  const auto atomic = [](Access a) {
    return a == Access::kAtomic || a == Access::kCasClaim;
  };
  if (prev == Access::kInit || cur == Access::kInit) {
    is_conflict = false;
  } else if (prev == Access::kPlainClaim && cur == Access::kPlainClaim) {
    return ViolationKind::kDoubleClaim;
  } else if (prev == Access::kCasClaim && cur == Access::kCasClaim) {
    return ViolationKind::kDoubleClaim;
  } else if (plain(prev) && plain(cur)) {
    return ViolationKind::kWriteWriteRace;
  } else if ((plain(prev) && atomic(cur)) || (atomic(prev) && plain(cur))) {
    return ViolationKind::kWriteAtomicRace;
  } else {
    is_conflict = false;  // atomic vs atomic: the device model allows it
  }
  return ViolationKind::kContract;
}

const char* access_name(Access a) {
  switch (a) {
    case Access::kInit: return "init";
    case Access::kPlainWrite: return "plain write";
    case Access::kPlainClaim: return "plain claim";
    case Access::kAtomic: return "atomic";
    case Access::kCasClaim: return "CAS claim";
  }
  return "?";
}

}  // namespace

Report report() {
  State& s = state();
  Report r;
  r.total = s.total.load(std::memory_order_relaxed);
  std::lock_guard lock(s.v_mu);
  r.violations = s.violations;
  return r;
}

std::uint64_t violation_count() noexcept {
  return state().total.load(std::memory_order_relaxed);
}

void reset() {
  State& s = state();
  {
    std::lock_guard lock(s.v_mu);
    s.violations.clear();
    s.dedup.clear();
  }
  s.total.store(0, std::memory_order_relaxed);
  for (Shard& sh : s.shards) {
    std::lock_guard lock(sh.mu);
    sh.cells.clear();
  }
  {
    std::lock_guard lock(s.launches_mu);
    s.launch_labels.clear();
  }
  {
    std::lock_guard lock(s.ws_mu);
    s.workspaces.clear();
  }
}

namespace detail {

void note(const void* addr, Access access) noexcept {
  if (t_launch == 0) return;  // host-side access: outside the device model
  try {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    Shard& sh = shard_for(a);
    std::lock_guard lock(sh.mu);
    const Cell now{t_launch, static_cast<std::uint32_t>(t_task), access};
    auto [it, inserted] = sh.cells.try_emplace(a, now);
    if (inserted) return;
    Cell& cell = it->second;
    if (cell.epoch == t_launch && cell.task != t_task) {
      bool is_conflict = false;
      const ViolationKind kind = conflict(cell.access, access, is_conflict);
      if (is_conflict) {
        Violation v;
        v.kind = kind;
        v.kernel = label_of(t_launch);
        v.epoch = t_launch;
        v.task_a = t_task;
        v.task_b = cell.task;
        v.address = a;
        v.detail = std::string(access_name(access)) + " after " +
                   access_name(cell.access) + " by the other task";
        record(std::move(v));
      }
      // A clear must not erase the other task's same-launch record, or
      // the reclaim that follows would look like a first claim.
      if (access == Access::kInit) return;
    }
    cell = now;
  } catch (...) {
    // The checker never takes the process down on its own allocation
    // failure; worst case it under-reports.
  }
}

std::uint64_t open_launch(std::size_t tasks) noexcept {
  State& s = state();
  const std::uint64_t epoch =
      s.next_epoch.fetch_add(1, std::memory_order_relaxed);
  try {
    std::string label;
    if (t_kernel) {
      label = t_kernel;
      if (t_kernel_index != kNoIndex) {
        // Appended piecewise: GCC 12 flags the inlined temporary
        // concatenation with a false -Wrestrict.
        label += '[';
        label += std::to_string(t_kernel_index);
        label += ']';
      }
    } else {
      label = "kernel";
    }
    if (t_launch != 0) {
      Violation v;
      v.kind = ViolationKind::kNestedLaunch;
      v.kernel = label;
      v.epoch = epoch;
      v.task_a = t_task;
      v.detail = "launched from inside task " + std::to_string(t_task) +
                 " of " + label_of(t_launch) +
                 " — tasks must not synchronize within a launch";
      record(std::move(v));
    }
    std::lock_guard lock(s.launches_mu);
    s.launch_labels.emplace(epoch,
                            label + "/" + std::to_string(tasks) + "t");
  } catch (...) {
  }
  return epoch;
}

void close_launch(std::uint64_t launch) noexcept {
  if (launch == 0) return;
  State& s = state();
  try {
    std::lock_guard lock(s.launches_mu);
    s.launch_labels.erase(launch);
  } catch (...) {
  }
}

void enter_task(std::uint64_t launch, std::size_t task,
                std::uint64_t& prev_launch, std::size_t& prev_task) noexcept {
  prev_launch = t_launch;
  prev_task = t_task;
  t_launch = launch;
  t_task = task;
}

void leave_task(std::uint64_t prev_launch, std::size_t prev_task) noexcept {
  t_launch = prev_launch;
  t_task = prev_task;
}

void set_kernel(const char* name, std::size_t index) noexcept {
  t_kernel = name;
  t_kernel_index = index;
}

void clear_kernel() noexcept {
  t_kernel = nullptr;
  t_kernel_index = kNoIndex;
}

bool acquire_workspace(const void* ws) noexcept {
  State& s = state();
  try {
    std::lock_guard lock(s.ws_mu);
    auto [it, inserted] =
        s.workspaces.try_emplace(ws, WorkspaceOwner{std::this_thread::get_id(), 1});
    if (inserted) return true;
    WorkspaceOwner& owner = it->second;
    if (owner.owner == std::this_thread::get_id()) {
      ++owner.depth;  // phases nest (modularity inside optimize)
      return true;
    }
    Violation v;
    v.kind = ViolationKind::kWorkspaceAliased;
    v.kernel = "host";
    std::ostringstream os;
    os << "workspace " << ws << " is driven by two threads concurrently"
       << " — concurrent jobs must not share a core::Workspace";
    v.detail = os.str();
    record(std::move(v));
    return false;
  } catch (...) {
    return false;
  }
}

void release_workspace(const void* ws) noexcept {
  State& s = state();
  try {
    std::lock_guard lock(s.ws_mu);
    auto it = s.workspaces.find(ws);
    if (it == s.workspaces.end()) return;
    if (--it->second.depth <= 0) s.workspaces.erase(it);
  } catch (...) {
  }
}

void fail_contract(const char* what) noexcept {
  try {
    Violation v;
    v.kind = ViolationKind::kContract;
    v.kernel = t_launch != 0 ? label_of(t_launch)
                             : (t_kernel ? std::string(t_kernel) : "host");
    v.epoch = t_launch;
    v.task_a = t_launch != 0 ? t_task : kNoIndex;
    v.detail = what;
    record(std::move(v));
  } catch (...) {
  }
}

}  // namespace detail
}  // namespace glouvain::check
