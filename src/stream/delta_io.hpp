// Text format for delta batches, consumed by `glouvain stream` and
// emitted by `glouvain churn`. Line-oriented, `#`/`%` comments skipped:
//
//   batch <stamp>        -- starts a new Delta (stamp optional, u64)
//   + u v [w]            -- insertion (w defaults to 1; finite and > 0)
//   - u v                -- deletion
//
// Edges before the first `batch` line form an implicit batch 0. Status
// vocabulary matches graph/io: missing file -> kNotFound, malformed
// line (a bad weight included) or a vertex id >= graph::kInvalidVertex
// -> kInvalidArgument, mid-stream failure -> kIoError.
#pragma once

#include <string>
#include <vector>

#include "stream/delta.hpp"
#include "util/status.hpp"

namespace glouvain::stream {

util::StatusOr<std::vector<Delta>> try_load_deltas(const std::string& path);

util::Status try_save_deltas(const std::vector<Delta>& deltas,
                             const std::string& path);

}  // namespace glouvain::stream
