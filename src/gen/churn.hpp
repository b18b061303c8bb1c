// Timestamped delta-batch generator for the dynamic-graph benchmarks:
// evolves a graph whose community structure is known (e.g. the planted
// labels of gen::planted_partition) through a sequence of edge churn
// epochs, tracking the live edge set so deletions always hit existing
// edges and insertions never duplicate one.
//
// Modes:
//   CommunityPreserving — every epoch deletes a random `churn_fraction`
//     of the current edges and inserts the same number of new
//     INTRA-community edges, so the planted structure survives; the
//     warm-start benchmark's steady-state workload.
//   CommunityMerging — deletions as above, but each epoch's insertions
//     all run between one randomly chosen PAIR of communities, stitching
//     them together epoch by epoch; stresses a warm start's
//     fall-through aggregation hierarchy, since its level 0 moves only
//     the touched endpoints.
//
// Batch `stamp`s are the epoch index (1-based). Insertion weights are
// exactly 1.0, keeping the rebuilt-CSR-equals-fresh-build invariant
// test bitwise (integer-valued sums commute in floating point).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "stream/delta.hpp"

namespace glouvain::gen {

enum class ChurnMode {
  CommunityPreserving,
  CommunityMerging,
};

struct ChurnParams {
  std::uint64_t epochs = 8;
  /// Edges deleted (and inserted) per epoch, as a fraction of the
  /// CURRENT edge count; clamped to at least 1 edge per epoch.
  double churn_fraction = 0.01;
  ChurnMode mode = ChurnMode::CommunityPreserving;
  std::uint64_t seed = 1;
};

/// `community` holds one label per vertex of `graph` (any dense-ish
/// labeling works; gen::SbmResult::ground_truth is the usual source).
/// Returns `epochs` Deltas meant to be applied in order.
std::vector<stream::Delta> churn(const graph::Csr& graph,
                                 std::span<const graph::Community> community,
                                 const ChurnParams& params = {});

}  // namespace glouvain::gen
