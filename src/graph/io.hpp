// Graph file formats. Three text formats cover the collections the
// paper draws from (Florida: MatrixMarket; SNAP: edge lists; DIMACS/
// METIS meshes), plus a fast binary snapshot for benchmark re-runs.
//
// Every operation reports failure as a value: util::Status /
// util::StatusOr (missing file -> kNotFound, malformed content ->
// kInvalidArgument, mid-stream read/write failure -> kIoError; the CLI
// maps these to distinct exit codes). An edge weight that is not finite
// and > 0 (graph::valid_weight) is malformed content, except in
// MatrixMarket files, which read |value| and map 0 to 1.
#pragma once

#include <string>

#include "graph/csr.hpp"
#include "util/status.hpp"

namespace glouvain::graph {

/// Whitespace-separated `u v [w]` lines; `#` and `%` comment lines are
/// skipped. Vertices may be sparse ids; they are NOT compacted — ids
/// are used verbatim, so n = max id + 1. Each undirected edge should
/// appear once; duplicates merge.
[[nodiscard]] util::StatusOr<Csr> try_load_edge_list(const std::string& path);

/// MatrixMarket `%%MatrixMarket matrix coordinate (real|pattern|integer)
/// (general|symmetric)` files, 1-indexed. Symmetric files give the
/// lower triangle once; general files are symmetrized by merge.
[[nodiscard]] util::StatusOr<Csr> try_load_matrix_market(const std::string& path);

/// METIS .graph: header `n m [fmt]`, then one line of neighbors per
/// vertex (1-indexed), weights if fmt says so.
[[nodiscard]] util::StatusOr<Csr> try_load_metis(const std::string& path);

/// Dispatch on extension: .mtx → MatrixMarket, .graph/.metis → METIS,
/// .bin → binary, anything else → edge list.
[[nodiscard]] util::StatusOr<Csr> try_load_auto(const std::string& path);

/// Compact binary snapshot (magic + sizes + raw arrays, little-endian).
[[nodiscard]] util::Status try_save_binary(const Csr& graph, const std::string& path);
[[nodiscard]] util::StatusOr<Csr> try_load_binary(const std::string& path);

/// Write as a plain `u v w` edge list (each undirected edge once).
[[nodiscard]] util::Status try_save_edge_list(const Csr& graph, const std::string& path);

}  // namespace glouvain::graph
