// Fine-grained shared-memory parallel Louvain (PLM) — the CPU
// comparator class of the paper's Figure 7 (the OpenMP code of Lu,
// Halappanavar & Kalyanaraman [16] and the PLM of Staudt & Meyerhenke
// [21]). One thread processes many vertices; a vertex moves IMMEDIATELY
// after its best community is computed (asynchronous moves through
// shared memory), with the same move-control heuristics the paper
// adopts from [16]: the singleton-to-singleton guard C[j] < C[i],
// lowest-community-id tie breaking, and the adaptive t_bin/t_final
// threshold schedule.
#pragma once

#include "detect/options.hpp"
#include "detect/result.hpp"
#include "graph/csr.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::plm {

/// All knobs are the shared detect::Options (threads = 0 uses the
/// global pool as-is); PLM has no backend-specific extensions.
struct Config : detect::Options {};

/// Full multi-level run (core::climb_levels over PLM's phase and
/// core::contract_reference on the global pool). `recorder` (optional)
/// receives per-level "modopt"/"aggregate" spans comparable with the
/// core backend's.
detect::Result louvain(const graph::Csr& graph, const Config& config = {},
                       obs::Recorder* recorder = nullptr);

}  // namespace glouvain::plm
