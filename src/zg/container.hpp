// On-disk container for ZCsr — the out-of-core half of the zg layer.
//
// File layout ("GLZG", version 1, little-endian, sections 8-byte
// aligned so an mmap of the file serves the ZCsr spans directly):
//
//   [Header, 64 bytes]
//     magic          char[4]  "GLZG"
//     version        u32      1
//     n              u64      vertices
//     arcs           u64      directed arc count
//     loops          u64      self-loop count
//     total_weight   f64      the cached "2m" (bitwise)
//     weight_mode    u8       zg::WeightMode
//     reserved       u8[3]
//     skip_interval  u32      rows per skip-index sample
//     skip_count     u64      skip-index entries
//     stream_bytes   u64      adjacency/weight stream length
//   [skip    u64[skip_count]]   absolute stream offsets
//   [degrees u32[n]]            per-row degrees
//   [pad to 8]
//   [stream  u8[stream_bytes]]  the varint row stream
//
// save()/load() move whole containers through buffered streams;
// MappedGraph::open() maps the file and hands out a zero-copy ZCsr
// view (madvise-sequential prefetch), falling back to a buffered read
// on platforms without <sys/mman.h>.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"
#include "zg/zcsr.hpp"

namespace glouvain::zg {

/// Write `z` as a GLZG container. Overwrites `path`.
util::Status save(const ZCsr& z, const std::string& path);

/// Read a GLZG container fully into memory (owning ZCsr). Malformed
/// headers and section-length mismatches come back as
/// kInvalidArgument; filesystem trouble as kNotFound/kIoError.
util::StatusOr<ZCsr> load(const std::string& path);

/// Memory-mapped GLZG container: the returned ZCsr's spans point
/// straight into the mapping, so the adjacency stream pages in on
/// demand instead of occupying anonymous memory. Move-only; the
/// mapping lives until destruction and must outlive the view.
class MappedGraph {
 public:
  static util::StatusOr<MappedGraph> open(const std::string& path);

  MappedGraph(MappedGraph&& o) noexcept { *this = std::move(o); }
  MappedGraph& operator=(MappedGraph&& o) noexcept;
  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;
  ~MappedGraph();

  const ZCsr& zcsr() const noexcept { return view_; }
  /// False when the platform fallback (buffered read) was used.
  bool mapped() const noexcept { return addr_ != nullptr; }

 private:
  MappedGraph() = default;

  ZCsr view_;
  void* addr_ = nullptr;  ///< mmap base (nullptr => fallback_ owns)
  std::size_t len_ = 0;
  int fd_ = -1;
  std::vector<std::uint8_t> fallback_;
};

}  // namespace glouvain::zg
