#include "core/first_order.hpp"

#include <algorithm>

#include "exp/level_parallel.hpp"
#include "graph/csr.hpp"
#include "graph/level_sets.hpp"
#include "graph/levels.hpp"
#include "graph/longest_path.hpp"
#include "graph/topological.hpp"

namespace expmk::core {

EXPMK_NOALLOC FirstOrderResult first_order(const scenario::Scenario& sc,
                             exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  const std::span<double> top = ws.doubles(n);
  const std::span<double> bottom = ws.doubles(n);
  const double d = graph::compute_levels(csr, w, top, bottom);

  FirstOrderResult out;
  out.critical_path = d;
  double correction = 0.0;
  if (!sc.heterogeneous()) {
    // Uniform: sum the deltas, multiply by lambda once (the golden
    // sweep artifact pins this exact addition sequence).
    for (std::uint32_t v = 0; v < n; ++v) {
      const double through_doubled = top[v] + bottom[v] + w[v];
      const double delta = std::max(0.0, through_doubled - d);
      correction += w[v] * delta;
    }
    out.correction = sc.uniform_model().lambda * correction;
  } else {
    const std::span<const double> rates = sc.rates_csr();
    for (std::uint32_t v = 0; v < n; ++v) {
      const double through_doubled = top[v] + bottom[v] + w[v];
      const double delta = std::max(0.0, through_doubled - d);
      // lambda_i folds into the sum per task instead of scaling it once.
      correction += rates[v] * w[v] * delta;
    }
    out.correction = correction;
  }
  return out;
}

FirstOrderResult first_order(const scenario::Scenario& sc, exp::Workspace& ws,
                             std::size_t workers) {
  if (workers <= 1) return first_order(sc, ws);
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  const std::span<double> top = ws.doubles(n);
  const std::span<double> bottom = ws.doubles(n);
  const std::span<double> contrib = ws.doubles(n);
  const std::size_t nchunks = exp::lp::fixed_chunk_count(n);
  const std::span<double> chunk_scratch = ws.doubles(nchunks);
  const double d = exp::lp::compute_levels_parallel(
      csr, w, sc.level_sets(), top, bottom, chunk_scratch, workers);

  FirstOrderResult out;
  out.critical_path = d;
  // Per-vertex contributions land in disjoint slots (same expressions as
  // the serial kernel); the sum then folds them in ascending-v order on
  // this thread — the serial kernel's exact addition sequence, so the
  // result is bit-identical for any worker count.
  const bool het = sc.heterogeneous();
  const std::span<const double> rates =
      het ? sc.rates_csr() : std::span<const double>{};
  exp::lp::run_chunks(workers, nchunks, [&](std::size_t c) {
    const std::size_t b = c * graph::kLevelChunk;
    const std::size_t e = std::min(n, b + graph::kLevelChunk);
    for (std::size_t v = b; v < e; ++v) {
      const double through_doubled = top[v] + bottom[v] + w[v];
      const double delta = std::max(0.0, through_doubled - d);
      contrib[v] = het ? rates[v] * w[v] * delta : w[v] * delta;
    }
  });
  double correction = 0.0;
  for (std::size_t v = 0; v < n; ++v) correction += contrib[v];
  out.correction = het ? correction : sc.uniform_model().lambda * correction;
  return out;
}

double first_order_naive(const graph::Dag& g, const FailureModel& model) {
  const auto topo = graph::topological_order(g);
  std::vector<double> finish(g.task_count());
  const double d = graph::critical_path_length(g, g.weights(), topo, finish);
  std::vector<double> weights = g.weights();
  double correction = 0.0;
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    const double a = weights[i];
    weights[i] = 2.0 * a;
    const double d_i = graph::critical_path_length(g, weights, topo, finish);
    weights[i] = a;
    correction += a * (d_i - d);
  }
  return d + model.lambda * correction;
}

}  // namespace expmk::core
