// Reusable scratch arena for the prim primitives — the host-side
// analogue of the paper's cudaMalloc-once device buffers. Every prim
// call that needs temporary storage (scan partials, merge buffers,
// partition counters, counting-sort histograms) can draw it from a
// Scratch instead of heap-allocating per call, so steady-state
// invocations perform zero allocations.
//
// Structure: a bump allocator over a list of fixed chunks, so a span
// stays valid until the reset or frame that reclaims it. Chunks are
// retained across resets, so once the arena has warmed up to a
// workload's high-water mark, every later request is served from
// existing memory. Nested primitives compose through Frame, an RAII
// mark/release guard: allocations made inside a frame are reclaimed
// when it ends, without ever freeing the underlying chunks.
//
// A Scratch is single-threaded: it belongs to the driver thread that
// launches kernels (exactly like a CUDA stream's workspace buffer);
// worker threads never allocate from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace glouvain::prim {

class Scratch {
 public:
  /// Arena observability — feeds the obs "ws/*" counters.
  struct Counters {
    std::uint64_t requests = 0;        ///< alloc() calls
    std::uint64_t bytes_requested = 0; ///< sum of rounded request sizes
    std::uint64_t hits = 0;            ///< served from an existing chunk
    std::uint64_t heap_grows = 0;      ///< required a new heap chunk
    std::uint64_t live_high_water = 0; ///< max concurrently-live bytes
  };

  Scratch() = default;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  Scratch(Scratch&&) = default;
  Scratch& operator=(Scratch&&) = default;

  /// Allocate `count` elements of trivially-destructible T. The span is
  /// uninitialized and stays valid until the enclosing Frame ends (or
  /// reset()); later allocations never invalidate it.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    const std::size_t bytes = align_up(count * sizeof(T));
    return {reinterpret_cast<T*>(raw_alloc(bytes)), count};
  }

  /// RAII mark/release: allocations after construction are reclaimed
  /// (chunks kept) when the frame is destroyed. Frames nest.
  class Frame {
   public:
    explicit Frame(Scratch& scratch) noexcept
        : scratch_(scratch),
          chunk_index_(scratch.chunk_index_),
          chunk_used_(scratch.chunk_used_),
          live_bytes_(scratch.live_bytes_) {}
    ~Frame() {
      scratch_.chunk_index_ = chunk_index_;
      scratch_.chunk_used_ = chunk_used_;
      scratch_.live_bytes_ = live_bytes_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Scratch& scratch_;
    std::size_t chunk_index_;
    std::size_t chunk_used_;
    std::size_t live_bytes_;
  };

  /// Release every allocation (chunks are kept for reuse).
  void reset() noexcept {
    chunk_index_ = 0;
    chunk_used_ = 0;
    live_bytes_ = 0;
  }

  /// Bytes of chunk capacity currently held (the arena footprint).
  std::size_t held_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size();
    return total;
  }

  const Counters& counters() const noexcept { return counters_; }

 private:
  static constexpr std::size_t kMinChunk = 256 * 1024;

  static std::size_t align_up(std::size_t bytes) noexcept {
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    return (bytes + kAlign - 1) & ~(kAlign - 1);
  }

  unsigned char* raw_alloc(std::size_t bytes) {
    ++counters_.requests;
    counters_.bytes_requested += bytes;
    live_bytes_ += bytes;
    if (live_bytes_ > counters_.live_high_water) {
      counters_.live_high_water = live_bytes_;
    }
    while (chunk_index_ < chunks_.size()) {
      auto& chunk = chunks_[chunk_index_];
      if (chunk_used_ + bytes <= chunk.size()) {
        unsigned char* p = chunk.data() + chunk_used_;
        chunk_used_ += bytes;
        ++counters_.hits;
        return p;
      }
      ++chunk_index_;
      chunk_used_ = 0;
    }
    ++counters_.heap_grows;
    chunks_.emplace_back(std::max(bytes, kMinChunk));
    chunk_index_ = chunks_.size() - 1;
    chunk_used_ = bytes;
    return chunks_.back().data();
  }

  // vector<unsigned char> buffers come from operator new and are
  // max_align_t-aligned; offsets stay aligned via align_up.
  std::vector<std::vector<unsigned char>> chunks_;
  std::size_t chunk_index_ = 0;
  std::size_t chunk_used_ = 0;
  std::size_t live_bytes_ = 0;
  Counters counters_;
};

}  // namespace glouvain::prim
