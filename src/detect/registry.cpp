#include "detect/detector.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "core/louvain.hpp"
#include "obs/recorder.hpp"
#include "plm/plm.hpp"
#include "seq/louvain.hpp"
#include "zg/zcsr.hpp"

namespace glouvain::detect {

Result Detector::run_z(const zg::ZCsr& z, const Options& options,
                       obs::Recorder* recorder) {
  // Generic fallback: materialize the plain graph. Backends with a
  // native compressed path override this.
  const graph::Csr plain = z.decode_all();
  Options opts = options;
  opts.warm_start.reset();
  return run(plain, opts, recorder);
}

namespace {

/// A backend runner (core::Louvain or shard::Engine) kept warm across
/// runs. A change of Options::threads or of the resolved
/// Options::device rebuilds it (the live device's shape is immutable,
/// see Louvain::set_config); anything else is a config swap on the
/// warm instance.
template <typename Runner>
class WarmRunner {
 public:
  template <typename Config>
  Runner& get(const Config& cfg) {
    const simt::Backend backend = simt::resolve_backend(cfg.device);
    if (!runner_ || cfg.threads != threads_ || backend != backend_) {
      runner_ = std::make_unique<Runner>(cfg);
      threads_ = cfg.threads;
      backend_ = backend;
    } else {
      runner_->set_config(cfg);
    }
    return *runner_;
  }

 private:
  std::unique_ptr<Runner> runner_;
  unsigned threads_ = 0;
  simt::Backend backend_ = simt::Backend::kAuto;
};

/// GPU-style Louvain on the software SIMT device. Keeps its device
/// (thread pool + shared arenas) warm across runs — the svc device
/// pool holds one of these per pooled slot.
class CoreDetector final : public Detector {
 public:
  std::string_view name() const noexcept override { return "core"; }

  Result run(const graph::Csr& graph, const Options& options,
             obs::Recorder* recorder) override {
    core::Louvain& runner = runner_for(options);
    if (options.warm_start) {
      return runner.run_warm(graph, options.warm_start->seed,
                             options.warm_start->frontier, recorder);
    }
    return runner.run(graph, recorder);
  }

  Result run_z(const zg::ZCsr& z, const Options& options,
               obs::Recorder* recorder) override {
    return runner_for(options).run_z(z, recorder);
  }

 private:
  core::Louvain& runner_for(const Options& options) {
    core::Config cfg = core::to_config(options);
    cfg.warm_start.reset();  // passed explicitly in run(); keep the
                             // kept config from pinning the seed arrays
    return runner_.get(cfg);
  }

  WarmRunner<core::Louvain> runner_;
};

class SeqDetector final : public Detector {
 public:
  std::string_view name() const noexcept override { return "seq"; }

  Result run(const graph::Csr& graph, const Options& options,
             obs::Recorder* recorder) override {
    seq::Config cfg;
    static_cast<Options&>(cfg) = options;
    if (options.warm_start) {
      return seq::louvain_warm(graph, options.warm_start->seed,
                               options.warm_start->frontier, cfg, recorder);
    }
    return seq::louvain(graph, cfg, recorder);
  }

  Result run_z(const zg::ZCsr& z, const Options& options,
               obs::Recorder* recorder) override {
    seq::Config cfg;
    static_cast<Options&>(cfg) = options;
    cfg.warm_start.reset();
    return seq::louvain_z(z, cfg, recorder);
  }
};

class PlmDetector final : public Detector {
 public:
  std::string_view name() const noexcept override { return "plm"; }

  Result run(const graph::Csr& graph, const Options& options,
             obs::Recorder* recorder) override {
    plm::Config cfg;
    static_cast<Options&>(cfg) = options;
    return plm::louvain(graph, cfg, recorder);
  }
};

/// Sharded multi-device Louvain (DESIGN.md §14). Keeps its engine
/// (device + workspace) warm across runs, exactly like CoreDetector —
/// the svc device pool relies on this for cheap repeated jobs.
class ShardDetector final : public Detector {
 public:
  explicit ShardDetector(const Extensions& ext) : base_(ext.shard) {}

  std::string_view name() const noexcept override { return "shard"; }

  Result run(const graph::Csr& graph, const Options& options,
             obs::Recorder* recorder) override {
    if (options.warm_start) {
      throw std::invalid_argument(
          "shard: warm_start is not supported (shards are rebuilt per run)");
    }
    shard::Result sr = engine_for(options).run(graph, recorder);
    return static_cast<Result&&>(std::move(sr));  // slice off shard extras
  }

 private:
  shard::Engine& engine_for(const Options& options) {
    shard::Config cfg = shard::to_config(options, base_);
    cfg.warm_start.reset();
    return engine_.get(cfg);
  }

  shard::Config base_;
  WarmRunner<shard::Engine> engine_;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Factory, std::less<>> factories;

  Registry() {
    factories.emplace("core", [](const Extensions&) {
      return std::make_unique<CoreDetector>();
    });
    factories.emplace("seq", [](const Extensions&) {
      return std::make_unique<SeqDetector>();
    });
    factories.emplace("plm", [](const Extensions&) {
      return std::make_unique<PlmDetector>();
    });
    factories.emplace("shard", [](const Extensions& ext) {
      return std::make_unique<ShardDetector>(ext);
    });
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

util::StatusOr<std::unique_ptr<Detector>> make(std::string_view backend,
                                               const Extensions& ext) {
  Factory factory;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.factories.find(backend);
    if (it == reg.factories.end()) {
      return util::Status::invalid_argument("unknown detection backend: " +
                                            std::string(backend));
    }
    factory = it->second;
  }
  return factory(ext);
}

std::vector<std::string> backend_names() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, factory] : reg.factories) names.push_back(name);
  return names;
}

bool register_backend(std::string name, Factory factory) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.factories.emplace(std::move(name), std::move(factory)).second;
}

}  // namespace glouvain::detect
