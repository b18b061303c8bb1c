// Row sources: the one seam between the Louvain kernels and graph
// storage. Kernels ask a Rows object for a vertex's (adjacency,
// weights, degree) view and never touch offsets or raw arrays, so the
// same kernel template runs over a plain Csr (zero-cost spans — the
// default, codegen-identical to the direct-pointer code it replaced)
// or a zg::ZCsr (per-worker decode buffers fed by varint cursors —
// the compressed level-0 path of the zg subsystem).
//
// ZRows decodes into per-worker grow-on-demand buffers rather than
// the task's SharedArena: a hub row can exceed any realistic shared
// capacity, and the decode buffer is host-side plumbing of the
// storage substitution, not part of the modelled device memory (see
// DESIGN.md §12). Each worker keeps a cached cursor so vertex-ordered
// passes (strength reset, modularity) decode sequentially; random-
// order passes (bucketed sweeps) re-seek through the skip index.
//
// Bitwise contract: a decoded row is element-for-element identical to
// the plain row (the varint codec is lossless), and every kernel
// consumes it in the same order — so plain and compressed runs make
// identical move decisions.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "obs/recorder.hpp"
#include "zg/zcsr.hpp"

namespace glouvain::core {

/// What a kernel sees of one vertex's row.
struct RowView {
  const graph::VertexId* adj;
  const graph::Weight* w;
  std::uint32_t deg;
};

class PlainRows {
 public:
  explicit PlainRows(const graph::Csr& g) noexcept : g_(&g) {}

  graph::VertexId num_vertices() const noexcept { return g_->num_vertices(); }
  graph::EdgeIdx num_arcs() const noexcept { return g_->num_arcs(); }
  graph::Weight total_weight() const noexcept { return g_->total_weight(); }
  std::uint32_t degree(graph::VertexId v) const noexcept {
    return static_cast<std::uint32_t>(g_->degree(v));
  }

  RowView row(graph::VertexId v, unsigned /*worker*/) const noexcept {
    const graph::EdgeIdx off = g_->offset(v);
    return {g_->adjacency().data() + off, g_->edge_weights().data() + off,
            static_cast<std::uint32_t>(g_->degree(v))};
  }

 private:
  const graph::Csr* g_;
};

class ZRows {
 public:
  ZRows(const zg::ZCsr& z, unsigned workers) : z_(&z), workers_(workers) {
    for (unsigned w = 0; w < workers; ++w) {
      workers_state_.emplace_back(z.cursor());
    }
  }

  graph::VertexId num_vertices() const noexcept { return z_->num_vertices(); }
  graph::EdgeIdx num_arcs() const noexcept { return z_->num_arcs(); }
  graph::Weight total_weight() const noexcept { return z_->total_weight(); }
  std::uint32_t degree(graph::VertexId v) const noexcept {
    return z_->degree(v);
  }

  /// Decode row v into worker-local scratch. The view stays valid
  /// until this worker's next row() call.
  RowView row(graph::VertexId v, unsigned worker) noexcept {
    Worker& st = workers_state_[worker];
    const std::uint32_t deg = z_->degree(v);
    if (st.adj.size() < deg) {
      st.adj.resize(deg);
      st.w.resize(deg);
    }
    if (st.cursor.vertex() != v) {
      st.cursor = z_->cursor_at(v);
      ++st.reseeks;
    }
    st.cursor.decode_into(st.adj.data(), st.w.data());
    ++st.rows;
    return {st.adj.data(), st.w.data(), deg};
  }

  const zg::ZCsr& zcsr() const noexcept { return *z_; }

  /// Rows decoded across all workers since construction.
  std::uint64_t rows_decoded() const noexcept {
    std::uint64_t total = 0;
    for (const Worker& st : workers_state_) total += st.rows;
    return total;
  }
  /// Decodes that had to re-seek through the skip index (cache-cold
  /// random access; vertex-ordered passes keep this near zero).
  std::uint64_t reseeks() const noexcept {
    std::uint64_t total = 0;
    for (const Worker& st : workers_state_) total += st.reseeks;
    return total;
  }

 private:
  // Padded so neighbouring workers' counters and buffer headers don't
  // false-share under the dynamic chunk scheduler.
  struct alignas(64) Worker {
    explicit Worker(zg::ZCsr::Cursor c) : cursor(c) {}
    zg::ZCsr::Cursor cursor;
    std::vector<graph::VertexId> adj;
    std::vector<graph::Weight> w;
    std::uint64_t rows = 0;
    std::uint64_t reseeks = 0;
  };

  const zg::ZCsr* z_;
  unsigned workers_;
  std::vector<Worker> workers_state_;
};

/// The compressed container's storage counters ("zg/bytes_adj",
/// "zg/bytes_index", "zg/plain_bytes", "zg/ratio") for a run that
/// reads `z`. No-op when rec is null.
inline void count_storage(const zg::ZCsr& z, obs::Recorder* rec) {
  if (!rec) return;
  rec->count("zg/bytes_adj", static_cast<double>(z.bytes_stream()));
  rec->count("zg/bytes_index", static_cast<double>(z.bytes_index()));
  rec->count("zg/plain_bytes", static_cast<double>(z.plain_bytes()));
  const double packed = static_cast<double>(z.bytes_stream() + z.bytes_index());
  if (packed > 0) {
    rec->count("zg/ratio", static_cast<double>(z.plain_bytes()) / packed);
  }
}

}  // namespace glouvain::core
