// Device workspace arena — the host-side analogue of the paper's
// "allocate every device buffer once with cudaMalloc, reuse it for the
// whole run" discipline. The original CUDA code sizes its buffers for
// the level-0 graph and never calls cudaMalloc/cudaFree inside the
// modularity-optimization or aggregation loops; a Workspace gives the
// software-SIMT port the same property on the heap.
//
// Four kinds of storage, all grow-only:
//
//   * SLOT BUFFERS — named per-phase arrays (binning orders, atomic
//     histograms, scatter cursors). Each slot is one byte buffer that
//     grows to its high-water mark on first use and is handed out as
//     an uninitialized typed span afterwards.
//   * SCRATCH     — a prim::Scratch bump arena threaded through every
//     prim call (scan and reduction partials, merge buffers,
//     counting-sort histograms) and through simt kernel launches'
//     host-side needs.
//   * VECTOR POOLS — recycled std::vector storage for arrays whose
//     OWNERSHIP leaves the hot loop (the contracted CSR's three
//     arrays, renumbering maps): take<T>() re-uses the capacity of a
//     previously recycled vector, recycle(Csr&&) feeds a retired
//     level's graph back into the pools.
//   * ACCUMULATORS — one CommunityWeights per device worker, built
//     in place. Modopt's dense path (DESIGN §5.10) takes them for a
//     phase with a vertex above the register path, and every
//     aggregation merge (DESIGN §5.9) takes them, grown to the level's
//     community count.
//
// A Workspace is single-threaded (driver thread only) and owned by
// whoever owns the device: core::Louvain keeps one across levels,
// sweeps and detect() calls, which means svc's pooled device workers
// and stream::Session's warm detector reuse it across jobs and epochs
// for free. Counters (requests, bytes, arena hits vs heap fallbacks,
// footprint high-water) feed the obs "ws/*" counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/buckets.hpp"
#include "core/community_weights.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "prim/scratch.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::core {

class Workspace {
 public:
  /// Named persistent buffers. One enumerator per distinct array the
  /// hot path needs; a slot's byte size only ever grows.
  enum class Slot : std::size_t {
    // --- modularity optimization (core/modopt.cpp) ---
    kModoptActive,       ///< active-vertex list
    // --- aggregation (core/aggregate.cpp) ---
    kAggComSize,         ///< members per community (atomic histogram)
    kAggComDegree,       ///< degree sum per community (atomic histogram)
    kAggFlags,           ///< 0/1 community-survives flags
    kAggEdgePos,         ///< scan of community degree sums
    kAggComSizeWide,     ///< widened member counts for the scan
    kAggVertexStart,     ///< scan of member counts
    kAggCursor,          ///< atomic scatter cursors
    kAggCom,             ///< members grouped by community
    kAggTmpAdj,          ///< merged-row scratch adjacency
    kAggTmpW,            ///< merged-row scratch weights
    kAggMergedDegree,    ///< compacted row widths
    kAggNewDegree,       ///< row widths under new ids
    kAggOldId,           ///< new vertex id -> old community label
    // --- level driver (core/louvain.cpp) ---
    kFoldDense,          ///< per-level dense mapping before push_level
    // --- stream CSR rebuild (stream/apply.cpp) ---
    kStreamArcs,         ///< delta arc records
    kStreamRanges,       ///< per-vertex arc ranges
    kStreamNewDegree,    ///< rebuilt row widths
    kStreamTouchSlot,    ///< touched-vertex slot map
    kCount
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// The slot's buffer as `count` elements of trivially-destructible T,
  /// UNINITIALIZED beyond what the previous user left there. Grows the
  /// underlying byte buffer only when `count` exceeds every previous
  /// request for this slot.
  template <typename T>
  std::span<T> buffer(Slot slot, std::size_t count) {
    auto& bytes = slots_[static_cast<std::size_t>(slot)];
    const std::size_t need = count * sizeof(T);
    ++counters_.requests;
    counters_.bytes_requested += need;
    if (need > bytes.size()) {
      ++counters_.heap_grows;
      bytes.resize(need);
    } else {
      ++counters_.hits;
    }
    return {reinterpret_cast<T*>(bytes.data()), count};
  }

  /// The bump arena threaded through prim calls.
  prim::Scratch& scratch() noexcept { return scratch_; }

  /// Reusable binning results (order + group offsets), one per phase
  /// so modopt and aggregation never fight over capacity.
  Binned& modopt_binned() noexcept { return binned_[0]; }
  Binned& aggregate_binned() noexcept { return binned_[1]; }

  /// Take a vector with at least `count` elements from the recycling
  /// pool, or allocate one. Best fit: the smallest pooled capacity
  /// that satisfies `count` (so a small request never wastes a big
  /// vector another request of this cycle needs), else the largest one
  /// grows. The contents are unspecified beyond value-initialization
  /// of grown tails.
  template <typename T>
  std::vector<T> take(std::size_t count) {
    auto& pool = pool_for<T>();
    ++counters_.requests;
    counters_.bytes_requested += count * sizeof(T);
    std::vector<T> v;
    if (!pool.empty()) {
      std::size_t pick = 0;
      for (std::size_t i = 1; i < pool.size(); ++i) {
        const std::size_t ci = pool[i].capacity();
        const std::size_t cp = pool[pick].capacity();
        const bool i_fits = ci >= count;
        const bool p_fits = cp >= count;
        if (i_fits ? (!p_fits || ci < cp) : (!p_fits && ci > cp)) pick = i;
      }
      v = std::move(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (v.capacity() >= count) {
      ++counters_.hits;
    } else {
      ++counters_.heap_grows;
    }
    v.resize(count);
    return v;
  }

  /// Return a vector's capacity to the pool.
  template <typename T>
  void put(std::vector<T>&& v) {
    if (v.capacity() == 0) return;
    v.clear();
    pool_for<T>().push_back(std::move(v));
  }

  /// Feed a retired graph's arrays back into the pools.
  void recycle(graph::Csr&& csr) {
    auto r = std::move(csr).release();
    put(std::move(r.offsets));
    put(std::move(r.adj));
    put(std::move(r.weights));
  }

  /// One accumulator per worker of `workers`, grown to sums for ids
  /// below `ids` and `touched_capacity` touched ids. Call it before a
  /// launch: the kernels only add to and clear what it hands out.
  std::span<CommunityWeights> accumulators(unsigned workers, std::size_t ids,
                                           std::size_t touched_capacity) {
    if (accumulators_.size() < workers) accumulators_.resize(workers);
    for (unsigned w = 0; w < workers; ++w) {
      accumulators_[w].grow(ids, touched_capacity);
    }
    return {accumulators_.data(), workers};
  }

  /// Merged slot + scratch counters.
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t bytes_requested = 0;
    std::uint64_t hits = 0;        ///< served from existing capacity
    std::uint64_t heap_grows = 0;  ///< had to touch the heap
  };
  Counters counters() const noexcept {
    const auto& s = scratch_.counters();
    return {counters_.requests + s.requests,
            counters_.bytes_requested + s.bytes_requested,
            counters_.hits + s.hits, counters_.heap_grows + s.heap_grows};
  }

  /// Current footprint: slot bytes + scratch chunks + binning results
  /// + pooled capacities + accumulators. All but the pools are
  /// grow-only, so outside of pool churn this is also the high-water
  /// mark.
  std::size_t held_bytes() const noexcept {
    std::size_t total = scratch_.held_bytes();
    for (const auto& s : slots_) total += s.size();
    for (const Binned& b : binned_) {
      total += b.order.capacity() * sizeof(graph::VertexId) +
               b.begin.capacity() * sizeof(std::size_t);
    }
    for (const auto& v : pool_u32_) total += v.capacity() * sizeof(std::uint32_t);
    for (const auto& v : pool_u64_) total += v.capacity() * sizeof(std::uint64_t);
    for (const auto& v : pool_f64_) total += v.capacity() * sizeof(double);
    for (const CommunityWeights& a : accumulators_) total += a.held_bytes();
    return total;
  }

  /// Emit "<phase>/ws_*" counters (deltas vs `since`, footprint as a
  /// max) at the recorder's current level. No-op when rec is null.
  void emit(obs::Recorder* rec, std::string_view phase,
            const Counters& since) const;

 private:
  template <typename T>
  std::vector<std::vector<T>>& pool_for() {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8,
                  "no recycling pool for this element type");
    if constexpr (sizeof(T) == 4) {
      static_assert(std::is_same_v<T, graph::VertexId>,
                    "4-byte pool holds VertexId/Community vectors");
      return pool_u32_;
    } else if constexpr (std::is_same_v<T, double>) {
      return pool_f64_;
    } else {
      static_assert(std::is_same_v<T, graph::EdgeIdx>,
                    "8-byte pool holds EdgeIdx vectors");
      return pool_u64_;
    }
  }

  std::vector<unsigned char> slots_[static_cast<std::size_t>(Slot::kCount)];
  prim::Scratch scratch_;
  Binned binned_[2];
  std::vector<std::vector<std::uint32_t>> pool_u32_;
  std::vector<std::vector<std::uint64_t>> pool_u64_;
  std::vector<std::vector<double>> pool_f64_;
  std::vector<CommunityWeights> accumulators_;
  Counters counters_;
};

}  // namespace glouvain::core
