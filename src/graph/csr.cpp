#include "graph/csr.hpp"

#include "prim/reduce.hpp"
#include "simt/thread_pool.hpp"

namespace glouvain::graph {

namespace {

/// 2m and the loop count of a Csr, summed over one chunk of rows.
struct Totals {
  Weight weight = 0;
  EdgeIdx loops = 0;

  Totals& operator+=(const Totals& o) noexcept {
    weight += o.weight;
    loops += o.loops;
    return *this;
  }
};

}  // namespace

Csr::Csr(std::vector<EdgeIdx> offsets, std::vector<VertexId> adj,
         std::vector<Weight> weights)
    : offsets_(std::move(offsets)),
      adj_(std::move(adj)),
      weights_(std::move(weights)) {
  compute_totals(nullptr);
}

Csr::Csr(std::vector<EdgeIdx> offsets, std::vector<VertexId> adj,
         std::vector<Weight> weights, prim::Scratch& scratch)
    : offsets_(std::move(offsets)),
      adj_(std::move(adj)),
      weights_(std::move(weights)) {
  compute_totals(&scratch);
}

void Csr::compute_totals(prim::Scratch* scratch) {
  assert(!offsets_.empty());
  assert(adj_.size() == offsets_.back());
  assert(weights_.size() == adj_.size());

  const auto rows = [&](std::size_t begin, std::size_t end, unsigned) {
    Totals part;
    for (std::size_t v = begin; v < end; ++v) {
      Weight s = 0;
      EdgeIdx loops = 0;
      for (EdgeIdx i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        s += weights_[i];
        if (adj_[i] == static_cast<VertexId>(v)) ++loops;
      }
      part.weight += s;
      part.loops += loops;
    }
    return part;
  };
  const Totals totals = scratch ? prim::reduce(num_vertices(), rows, *scratch)
                                : prim::reduce(num_vertices(), rows);
  total_weight_ = totals.weight;
  num_loops_ = totals.loops;
}

Weight Csr::loop_weight(VertexId v) const noexcept {
  const EdgeIdx b = offsets_[v], e = offsets_[v + 1];
  Weight w = 0;
  for (EdgeIdx i = b; i < e; ++i) {
    if (adj_[i] == v) w += weights_[i];
  }
  return w;
}

std::vector<Weight> Csr::compute_strengths() const {
  const VertexId n = num_vertices();
  std::vector<Weight> strengths(n);
  simt::ThreadPool::global().parallel_for(n, [&](std::size_t v, unsigned) {
    strengths[v] = strength(static_cast<VertexId>(v));
  });
  return strengths;
}

}  // namespace glouvain::graph
