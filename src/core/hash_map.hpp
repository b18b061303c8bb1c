// The per-vertex / per-community hash table of the paper's Algorithms
// 2 and 3: open addressing with double hashing over a prime-sized
// table, slot claiming on the community-id array, weight accumulation
// on the parallel weight array (lines 4-13 of Algorithm 2).
//
// No production kernel uses it: core's moves and merges sum by
// community id in the worker's CommunityWeights (DESIGN §5.9, §5.10).
// The tables back only the table-path reference the tests hold the
// move kernels against (core::detail::compute_move), the checker's
// seeded cases, and the micro_hashing and micro_prim benches.
//
// The table is a VIEW over caller spans, such as a SharedArena's, so
// the same code runs against "shared memory" and "global memory"
// storage.
//
// Atomicity policy: Atomic = true gives the fully concurrent table
// (CAS slot claiming + atomic accumulate) for storage shared between
// OS threads; it is what the GPU kernels use across warps and is
// stress-tested under real contention in core_hash_test.cpp.
// Atomic = false is the task-local specialization of the table-path
// reference: a lane group executes inside ONE OS thread, so its
// per-vertex table needs no host atomics — mirroring the GPU, where
// intra-warp shared-memory atomics are close to free while the
// algorithmic structure (probe sequence, claim-then-accumulate) is
// identical.
//
// Probing avoids hardware division: the two double-hash seeds use
// Lemire's fastmod (two multiplies) against reciprocals precomputed at
// construction, and successive probes advance by conditional subtract.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "check/check.hpp"
#include "graph/types.hpp"
#include "simt/atomics.hpp"
#include "util/primes.hpp"

namespace glouvain::core {

/// n % d via two multiplications (Lemire 2019); d > 1, n < 2^32.
class FastMod {
 public:
  FastMod() = default;
  explicit FastMod(std::uint32_t d) noexcept
      : magic_(~std::uint64_t{0} / d + 1), d_(d) {}
  /// From a precomputed magic (= ~0 / d + 1, e.g. out of a
  /// util::HashTableParams LUT entry), skipping the 64-bit division.
  FastMod(std::uint64_t magic, std::uint32_t d) noexcept
      : magic_(magic), d_(d) {}

  std::uint32_t mod(std::uint32_t n) const noexcept {
    const std::uint64_t low = magic_ * n;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(low) * d_) >> 64);
  }

 private:
  std::uint64_t magic_ = 0;
  std::uint32_t d_ = 1;
};

template <bool Atomic>
class BasicCommunityHashMap {
 public:
  /// Emptiness is encoded as this sentinel inside the key array itself.
  static constexpr graph::Community kNull = graph::kInvalidCommunity;

  /// capacity = keys.size() must be prime (double hashing needs the
  /// step h2 in [1, capacity) to be coprime with the capacity) and fit
  /// in 32 bits.
  BasicCommunityHashMap(std::span<graph::Community> keys,
                        std::span<graph::Weight> weights) noexcept
      : keys_(keys),
        weights_(weights),
        cap_(static_cast<std::uint32_t>(keys.size())),
        mod_cap_(cap_),
        mod_cap_minus1_(cap_ > 1 ? cap_ - 1 : 1) {
    assert(keys_.size() == weights_.size());
    assert(!keys_.empty());
    assert(keys_.size() < (std::uint64_t{1} << 32));
  }

  /// Hot-kernel constructor: probe magics come precomputed from the
  /// degree LUT instead of being divided out per vertex. `params` must
  /// describe capacity == keys.size().
  BasicCommunityHashMap(std::span<graph::Community> keys,
                        std::span<graph::Weight> weights,
                        const util::HashTableParams& params) noexcept
      : keys_(keys),
        weights_(weights),
        cap_(params.capacity),
        mod_cap_(params.magic_capacity, params.capacity),
        mod_cap_minus1_(params.magic_capacity_minus1, params.capacity - 1) {
    assert(keys_.size() == weights_.size());
    assert(keys_.size() == params.capacity);
    assert(params.capacity > 1);
  }

  /// Reset every slot to empty. (On the GPU this is the per-block
  /// shared-memory initialization loop.) In the task-local variant the
  /// weights need no reset — a claim initializes its weight slot before
  /// it is ever read; in the concurrent variant a racing add can land
  /// on a slot between claim and any initialization, so the weights
  /// must be pre-zeroed here.
  void clear() noexcept {
    for (std::uint32_t i = 0; i < cap_; ++i) {
      check::note_init(&keys_[i]);
      keys_[i] = kNull;
    }
    if constexpr (Atomic) {
      for (std::uint32_t i = 0; i < cap_; ++i) {
        check::note_init(&weights_[i]);
        weights_[i] = 0;
      }
    }
  }

  std::size_t capacity() const noexcept { return cap_; }

  /// Concurrent accumulate: hashWeight[slot(c)] += w. Behaviour is
  /// line-for-line Algorithm 2:
  ///   - key already present  -> add to the weight slot   (line 6-7)
  ///   - empty slot           -> claim, then add          (line 8-10)
  ///   - claim lost, same key -> add anyway               (line 11-12)
  ///   - claim lost, other key-> keep probing             (line 13)
  std::size_t insert_add(graph::Community c, graph::Weight w) noexcept {
    std::uint32_t pos = mod_cap_.mod(c);
    const std::uint32_t step = 1 + mod_cap_minus1_.mod(c);
    for (;;) {
      if constexpr (!Atomic) check::note_plain_read(&keys_[pos]);
      const graph::Community observed =
          Atomic ? simt::atomic_load(keys_[pos]) : keys_[pos];
      if (observed == c) {
        if constexpr (Atomic) {
          simt::atomic_add(weights_[pos], w);
        } else {
          check::note_plain_write(&weights_[pos]);
          weights_[pos] += w;
        }
        return pos;
      }
      if (observed == kNull) {
        if constexpr (Atomic) {
          const graph::Community prior = simt::atomic_cas(keys_[pos], kNull, c);
          if (prior == kNull || prior == c) {
            simt::atomic_add(weights_[pos], w);  // weights pre-zeroed in clear()
            return pos;
          }
          // Slot claimed for a different community; keep probing.
        } else {
          check::note_plain_claim(&keys_[pos]);
          keys_[pos] = c;
          check::note_plain_write(&weights_[pos]);
          weights_[pos] = w;  // claim initializes the weight slot
          return pos;
        }
      }
      pos += step;
      if (pos >= cap_) pos -= cap_;
    }
  }

  /// insert_add that also reports whether this call claimed the slot
  /// for a previously absent key (task-local variant only: claim
  /// tracking is per-caller state, which a concurrent table cannot
  /// attribute). The kernels use it to keep a compact list of occupied
  /// slots, which the best-community fold visits instead of the whole
  /// table.
  std::size_t insert_add_claim(graph::Community c, graph::Weight w,
                               bool& claimed) noexcept {
    static_assert(!Atomic, "claim tracking is for task-local tables");
    claimed = false;
    std::uint32_t pos = mod_cap_.mod(c);
    const std::uint32_t step = 1 + mod_cap_minus1_.mod(c);
    for (;;) {
      check::note_plain_read(&keys_[pos]);
      const graph::Community observed = keys_[pos];
      if (observed == c) {
        check::note_plain_write(&weights_[pos]);
        weights_[pos] += w;
        return pos;
      }
      if (observed == kNull) {
        check::note_plain_claim(&keys_[pos]);
        keys_[pos] = c;
        check::note_plain_write(&weights_[pos]);
        weights_[pos] = w;
        claimed = true;
        return pos;
      }
      pos += step;
      if (pos >= cap_) pos -= cap_;
    }
  }

  /// Non-concurrent lookup (post-kernel): weight for community c, or 0.
  graph::Weight lookup(graph::Community c) const noexcept {
    std::uint32_t pos = mod_cap_.mod(c);
    const std::uint32_t step = 1 + mod_cap_minus1_.mod(c);
    for (std::uint32_t it = 0; it < cap_; ++it) {
      check::note_plain_read(&keys_[pos]);
      if (keys_[pos] == c) return weights_[pos];
      if (keys_[pos] == kNull) return 0;
      pos += step;
      if (pos >= cap_) pos -= cap_;
    }
    return 0;
  }

  graph::Community key_at(std::size_t pos) const noexcept {
    check::note_plain_read(&keys_[pos]);
    return keys_[pos];
  }
  graph::Weight weight_at(std::size_t pos) const noexcept {
    check::note_plain_read(&weights_[pos]);
    return weights_[pos];
  }
  bool occupied(std::size_t pos) const noexcept {
    check::note_plain_read(&keys_[pos]);
    return keys_[pos] != kNull;
  }

 private:
  std::span<graph::Community> keys_;
  std::span<graph::Weight> weights_;
  std::uint32_t cap_;
  FastMod mod_cap_;
  FastMod mod_cap_minus1_;
};

/// Concurrent table for storage shared across OS threads.
using CommunityHashMap = BasicCommunityHashMap<true>;
/// Task-local table for per-vertex / per-community kernel scratch.
using LocalCommunityHashMap = BasicCommunityHashMap<false>;

}  // namespace glouvain::core
