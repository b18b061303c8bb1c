// Per-worker scratch memory modelling the GPU's on-chip *shared memory*
// versus off-chip *global memory* split (§4.1 of the paper).
//
// Each worker thread owns one SharedArena whose capacity defaults to
// the 48 KiB of a Kepler SM's shared memory. Kernels request their
// per-vertex hash tables from it; requests that exceed the remaining
// shared capacity spill into a heap-backed overflow region, and the
// spill count is tracked so experiments can verify that the paper's
// bucket boundaries really do keep groups 1–6 on-chip.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "check/check.hpp"

namespace glouvain::simt {

// Cache-line aligned: Device::launch resets a worker's arena for every
// task and each table allocation bumps its cursor, so neighbouring
// workers' arenas must not share a line.
class alignas(64) SharedArena {
 public:
  static constexpr std::size_t kDefaultCapacity = 48 * 1024;  // Kepler SM

  explicit SharedArena(std::size_t capacity_bytes = kDefaultCapacity)
      : shared_(capacity_bytes) {
    if (!shared_.empty()) check::register_arena(shared_.data(), shared_.size());
    // The first overflow chunk exists up front: which worker meets the
    // first spill or global-bucket table is up to the dynamic scheduler,
    // so a lazy chunk would let a warm device still touch the heap.
    chunks_.emplace_back(kMinChunk);
    check::register_arena(chunks_.back().data(), chunks_.back().size());
  }

  ~SharedArena() {
    if (!shared_.empty()) check::unregister_arena(shared_.data());
    for (auto& chunk : chunks_) {
      if (!chunk.empty()) check::unregister_arena(chunk.data());
    }
  }

  // Arenas are owned 1:1 by device workers; copying one would alias its
  // buffers in the shadow registry. Moves are fine — registration is
  // keyed on the heap buffers, which a move transfers intact (and the
  // moved-from vectors are empty, so its destructor unregisters
  // nothing).
  SharedArena(const SharedArena&) = delete;
  SharedArena& operator=(const SharedArena&) = delete;
  SharedArena(SharedArena&&) noexcept = default;
  SharedArena& operator=(SharedArena&&) = delete;

  /// Drop all allocations (called between tasks, like the implicit
  /// reclamation of shared memory between thread blocks). Overflow
  /// chunks are kept for reuse, so steady-state tasks allocate nothing.
  void reset() noexcept {
    shared_used_ = 0;
    chunk_index_ = 0;
    chunk_used_ = 0;
    if constexpr (check::enabled()) {
      if (!shared_.empty()) check::reset_arena(shared_.data());
      for (auto& chunk : chunks_) check::reset_arena(chunk.data());
    }
  }

  /// Allocate `count` elements of T. If the shared region has room the
  /// span lives there; otherwise it comes from the overflow region and
  /// the spill counter ticks. Previously returned spans are NEVER
  /// invalidated by later allocations (until reset()).
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    const std::size_t bytes = align_up(count * sizeof(T));
    if (shared_used_ + bytes <= shared_.size()) {
      T* p = reinterpret_cast<T*>(shared_.data() + shared_used_);
      shared_used_ += bytes;
      return {p, count};
    }
    ++spills_;
    return {reinterpret_cast<T*>(global_alloc(bytes)), count};
  }

  /// Allocate from the overflow ("global memory") region explicitly —
  /// used for the highest bucket where the paper also goes off-chip.
  template <typename T>
  std::span<T> alloc_global(std::size_t count) {
    const std::size_t bytes = align_up(count * sizeof(T));
    return {reinterpret_cast<T*>(global_alloc(bytes)), count};
  }

  std::size_t capacity() const noexcept { return shared_.size(); }
  std::size_t shared_used() const noexcept { return shared_used_; }
  std::uint64_t spills() const noexcept { return spills_; }
  void clear_spills() noexcept { spills_ = 0; }

 private:
  static constexpr std::size_t kMinChunk = 256 * 1024;

  static std::size_t align_up(std::size_t bytes) noexcept {
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    return (bytes + kAlign - 1) & ~(kAlign - 1);
  }

  /// Bump allocator over a list of fixed chunks. Chunks are never
  /// resized or freed while in use, so earlier spans stay valid.
  unsigned char* global_alloc(std::size_t bytes) {
    while (chunk_index_ < chunks_.size()) {
      auto& chunk = chunks_[chunk_index_];
      if (chunk_used_ + bytes <= chunk.size()) {
        unsigned char* p = chunk.data() + chunk_used_;
        chunk_used_ += bytes;
        return p;
      }
      ++chunk_index_;
      chunk_used_ = 0;
    }
    chunks_.emplace_back(std::max(bytes, kMinChunk));
    chunk_index_ = chunks_.size() - 1;
    chunk_used_ = bytes;
    check::register_arena(chunks_.back().data(), chunks_.back().size());
    return chunks_.back().data();
  }

  // vector<unsigned char>'s buffer comes from operator new and is
  // therefore max_align_t-aligned; offsets stay aligned via align_up.
  std::vector<unsigned char> shared_;
  std::vector<std::vector<unsigned char>> chunks_;
  std::size_t shared_used_ = 0;
  std::size_t chunk_index_ = 0;
  std::size_t chunk_used_ = 0;
  std::uint64_t spills_ = 0;
};

}  // namespace glouvain::simt
