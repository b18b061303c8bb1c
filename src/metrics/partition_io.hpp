// Reading/writing community assignments: the `<vertex> <community>`
// text format used by SNAP ground-truth files and by the glouvain CLI
// (`detect --out`, `stream --out`, `churn --labels`), so detected
// partitions round-trip and external partitions can be scored against
// ours. This is the one reader and the one writer of the format.
#pragma once

#include <string>
#include <vector>

#include "graph/types.hpp"
#include "util/status.hpp"

namespace glouvain::metrics {

/// One "<vertex> <community>" pair per line; `#`/`%` comments and blank
/// lines ignored; vertices in any order. The result has one label per
/// vertex of a `num_vertices`-vertex graph. kNotFound when the file
/// cannot be opened; kInvalidArgument for a malformed line, a vertex or
/// label >= num_vertices (the label rule of warm starts), or a vertex
/// with no line.
[[nodiscard]] util::StatusOr<std::vector<graph::Community>> load_partition(
    const std::string& path, graph::VertexId num_vertices);

/// One line per vertex, in vertex order. kIoError when the file cannot
/// be written.
[[nodiscard]] util::Status save_partition(
    const std::vector<graph::Community>& community, const std::string& path);

}  // namespace glouvain::metrics
