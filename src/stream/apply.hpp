// Batched delta application: rebuilds a canonical Csr from the current
// graph plus one stream::Delta without re-canonicalizing the whole edge
// list. Untouched rows are copied verbatim; only rows owned by a delta
// endpoint are re-merged. The rebuild runs on the prim primitives
// (parallel sort of the delta arcs, exclusive_scan for the new
// offsets, parallel row copy/merge), mirroring the Thrust-based host
// pipeline the paper uses for aggregation.
//
// Cost: O(n + m) for the row copy (the CSR arrays are immutable, as on
// the device), plus O(|delta| log |delta|) to sort the delta arcs and
// O(sum of touched-row degrees) to merge.
#pragma once

#include <cstddef>
#include <vector>

#include "core/workspace.hpp"
#include "graph/csr.hpp"
#include "simt/thread_pool.hpp"
#include "stream/delta.hpp"

namespace glouvain::stream {

struct ApplyResult {
  graph::Csr graph;
  /// Sorted, duplicate-free endpoints of every arc the delta touched
  /// (including no-op deletions' endpoints when in range) — the
  /// vertices a warm start lets move.
  std::vector<graph::VertexId> touched;
  /// Insertion entries applied (each undirected edge counted once).
  std::size_t inserted = 0;
  /// Deletion entries that removed an existing edge.
  std::size_t deleted = 0;
};

/// Apply `delta` to `graph`, producing the mutated graph. The result is
/// bitwise-identical to rebuilding the mutated edge list through
/// graph::build_csr (see tests/stream_test.cpp). Insertions with
/// non-positive weight and deletions of absent edges are ignored.
/// Every endpoint must pass graph::fits_vertex_id (Session::apply and
/// try_load_deltas reject the rest).
ApplyResult apply_delta(const graph::Csr& graph, const Delta& delta,
                        simt::ThreadPool& pool = simt::ThreadPool::global());

/// Allocation-free rebuild: delta arcs, ranges, degrees and the merge
/// temporaries come from `ws`'s slot buffers and scratch, the new CSR
/// arrays from its recycling pool (sessions feed the replaced graph
/// back via Workspace::recycle). Steady-state deltas of a bounded size
/// touch the heap only to grow the result past its high-water mark.
ApplyResult apply_delta(const graph::Csr& graph, const Delta& delta,
                        core::Workspace& ws,
                        simt::ThreadPool& pool = simt::ThreadPool::global());

}  // namespace glouvain::stream
