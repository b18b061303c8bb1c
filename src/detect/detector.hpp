// The unified detection API: one polymorphic interface over every
// community-detection backend in the library, plus a name registry.
//
//   auto detector = detect::make("core");        // StatusOr
//   obs::Recorder recorder;
//   detect::Result r = (*detector)->run(graph, {.thresholds = ...},
//                                       &recorder);
//
// The service layer and the CLI dispatch exclusively through this
// interface — no per-backend branches. Detectors may be stateful
// (the core detector keeps its simt device + workspace warm across runs,
// which is what the svc device pool relies on); one detector instance
// must not be run from two threads at once.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "detect/options.hpp"
#include "detect/result.hpp"
#include "graph/csr.hpp"
#include "shard/engine.hpp"
#include "util/status.hpp"
#include "zg/zcsr.hpp"

namespace glouvain::obs {
class Recorder;
}

namespace glouvain::detect {

/// Backend-specific knobs that survived the Config consolidation: the
/// shard engine's own fields. The Options slice inside `shard` is
/// overwritten by the Options passed to run().
struct Extensions {
  shard::Config shard;
};

class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Run the full multi-level pipeline over plain rows. `recorder` may
  /// be null (the zero-overhead path); when set, the run emits the
  /// per-level span tree and counters described in obs/recorder.hpp.
  virtual Result run(const graph::Csr& graph, const Options& options,
                     obs::Recorder* recorder = nullptr) = 0;

  /// Run directly from a compressed graph (a zg::ZCsr — typically the
  /// view of a mapped .zg container, so the plain arrays never
  /// materialize). The base implementation decodes to a plain Csr and
  /// delegates to run(); "core" and "seq" override with their native
  /// compressed paths. Partitions equal run() on the decoded graph.
  /// Options::warm_start is ignored here (warm starts need plain rows).
  virtual Result run_z(const zg::ZCsr& z, const Options& options,
                       obs::Recorder* recorder = nullptr);
};

using Factory = std::function<std::unique_ptr<Detector>(const Extensions&)>;

/// Instantiate a registered backend ("core" | "seq" | "plm" | "shard",
/// plus anything added via register_backend). Unknown names yield
/// kInvalidArgument.
util::StatusOr<std::unique_ptr<Detector>> make(std::string_view backend,
                                               const Extensions& ext = {});

/// Registered backend names, sorted.
std::vector<std::string> backend_names();

/// Extend the registry (tests, experiments). Returns false if the name
/// was already taken.
bool register_backend(std::string name, Factory factory);

}  // namespace glouvain::detect
