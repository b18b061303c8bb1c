// Halo exchange state of the sharded backend: the one global
// community/tot view that shards read through ACCESSORS ONLY.
//
// On this substrate the "exchange" is a gather from these arrays; on a
// real multi-GPU deployment the labels a shard reads from one owner
// (its replica and ghost slots, counted by ExchangePlan) would be one
// NCCL/NVLink message per (peer, round) and the arrays below would be
// per-device mirrors (DESIGN.md §14 substitution table). To keep that
// replacement honest, every cross-shard read in src/shard goes through
// community_of()/tot_of() and every write through store_label() /
// rebuild_tot(). The tools/glint.py rule "shard-ghost" flags any code
// outside this header that touches the raw arrays directly.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace glouvain::shard {

/// The exchanged global state: one label and one community total per
/// GLOBAL vertex/community. Owned by the engine, rebuilt between move
/// rounds. The raw vectors are public so obs/tests can snapshot them,
/// but shard code must use the accessors (lint-enforced).
struct GlobalState {
  std::vector<graph::Community> labels_raw;
  std::vector<graph::Weight> tot_raw;

  void reset(graph::VertexId n) {
    labels_raw.resize(n);
    tot_raw.assign(n, 0);
    for (graph::VertexId v = 0; v < n; ++v) labels_raw[v] = v;
  }

  /// Current community of global vertex v (the halo read).
  graph::Community community_of(graph::VertexId v) const noexcept {
    assert(v < labels_raw.size());
    const graph::Community* p = labels_raw.data();
#if defined(__GNUC__)
    // A caller passing v < size() implies a non-null buffer; the hint
    // stops GCC's -Wnull-dereference from flagging the empty-vector
    // path it invents when inlining this into the engine's loops.
    if (p == nullptr) __builtin_unreachable();
#endif
    return p[v];
  }

  /// Exchanged total strength of community c.
  graph::Weight tot_of(graph::Community c) const noexcept {
    assert(c < tot_raw.size());
    return tot_raw[c];
  }

  /// Publish the new label of an OWNED vertex (the halo write; only a
  /// vertex's owning shard may call this).
  void store_label(graph::VertexId v, graph::Community c) noexcept {
    assert(v < labels_raw.size());
    labels_raw[v] = c;
  }

  /// Publish one owned-vertex move AND keep the exchanged totals
  /// consistent incrementally (the per-phase analogue of the round's
  /// all-reduce). Without this, a shard later in the round would see
  /// fresh labels paired with stale totals — understated a_c turns
  /// into overstated gains and cascading over-merges. Returns whether
  /// the label actually changed.
  bool apply_move(graph::VertexId v, graph::Community c,
                  std::span<const graph::Weight> strengths) noexcept {
    assert(v < labels_raw.size() && c < tot_raw.size());
    const graph::Community old = labels_raw[v];
    if (old == c) return false;
    tot_raw[old] -= strengths[v];
    tot_raw[c] += strengths[v];
    labels_raw[v] = c;
    return true;
  }

  /// Recompute every community's total strength from the per-vertex
  /// strengths — the reduction a real deployment would all-reduce
  /// after each round.
  void rebuild_tot(std::span<const graph::Weight> strengths) {
    assert(strengths.size() == labels_raw.size());
    tot_raw.assign(labels_raw.size(), 0);
    for (graph::VertexId v = 0; v < labels_raw.size(); ++v) {
      tot_raw[labels_raw[v]] += strengths[v];
    }
  }

  std::span<const graph::Community> labels() const noexcept {
    return labels_raw;
  }
  std::span<const graph::Weight> tot() const noexcept { return tot_raw; }

  graph::VertexId size() const noexcept {
    return static_cast<graph::VertexId>(labels_raw.size());
  }
};

}  // namespace glouvain::shard
