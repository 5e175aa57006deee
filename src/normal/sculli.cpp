#include "normal/sculli.hpp"

#include <stdexcept>

#include "exp/level_parallel.hpp"
#include "graph/level_sets.hpp"

namespace expmk::normal {

EXPMK_NOALLOC prob::NormalMoments duration_moments_p(double a, double p,
                                       core::RetryModel kind) {
  if (a < 0.0) throw std::invalid_argument("duration_moments: a >= 0");
  if (a == 0.0) return {0.0, 0.0};
  switch (kind) {
    case core::RetryModel::TwoState:
      return {a * (2.0 - p), a * a * p * (1.0 - p)};
    case core::RetryModel::Geometric:
      return {a / p, a * a * (1.0 - p) / (p * p)};
  }
  return {a, 0.0};
}

prob::NormalMoments duration_moments(double a,
                                     const core::FailureModel& model,
                                     core::RetryModel kind) {
  if (a < 0.0) throw std::invalid_argument("duration_moments: a >= 0");
  if (a == 0.0) return {0.0, 0.0};
  return duration_moments_p(a, model.p_success(a), kind);
}

namespace {

/// One vertex of the Sculli fold: reads only predecessors' completion
/// moments (strictly earlier levels), writes completion[v]. The values
/// depend on the predecessor iteration order of `g` alone — never on
/// which thread or in which order-within-a-level the vertex runs — which
/// is what makes the leveled-parallel sweep bit-identical to the serial
/// topological one.
EXPMK_NOALLOC void sculli_vertex(const graph::Dag& g,
                                 std::span<const double> p,
                                 core::RetryModel kind,
                                 std::span<prob::NormalMoments> completion,
                                 graph::TaskId v) {
  prob::NormalMoments ready{0.0, 0.0};
  bool first = true;
  for (const graph::TaskId u : g.predecessors(v)) {
    if (first) {
      ready = completion[u];
      first = false;
    } else {
      ready = prob::clark_max(ready, completion[u], 0.0).moments;
    }
  }
  completion[v] = prob::sum_independent(
      ready, duration_moments_p(g.weight(v), p[v], kind));
}

/// Folds the exit completions into the makespan estimate (serial — the
/// fold order over `exits` is part of the pinned arithmetic).
EXPMK_NOALLOC NormalEstimate sculli_exits(
    std::span<const prob::NormalMoments> completion,
    std::span<const graph::TaskId> exits) {
  prob::NormalMoments makespan{0.0, 0.0};
  bool first = true;
  for (const graph::TaskId v : exits) {
    if (first) {
      makespan = completion[v];
      first = false;
    } else {
      makespan = prob::clark_max(makespan, completion[v], 0.0).moments;
    }
  }
  return NormalEstimate{makespan};
}

/// Shared traversal over per-task success probabilities, writing into
/// caller scratch. The completion moments are pure dataflow over the
/// graph (each fold reads only ancestors), so any valid topological order
/// yields identical values (every `completion` entry is written before it
/// is read).
EXPMK_NOALLOC NormalEstimate sculli_impl(const graph::Dag& g,
                           std::span<const graph::TaskId> topo,
                           std::span<const double> p, core::RetryModel kind,
                           std::span<prob::NormalMoments> completion,
                           std::span<const graph::TaskId> exits) {
  if (g.task_count() == 0) {
    throw std::invalid_argument("sculli: empty graph");
  }
  for (const graph::TaskId v : topo) {
    sculli_vertex(g, p, kind, completion, v);
  }
  return sculli_exits(completion, exits);
}

}  // namespace

EXPMK_NOALLOC NormalEstimate sculli(const scenario::Scenario& sc, exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  return sculli_impl(sc.dag(), sc.topo(), sc.p_success(), sc.retry(),
                     ws.moments(sc.task_count()), sc.exits());
}

NormalEstimate sculli(const scenario::Scenario& sc, exp::Workspace& ws,
                      std::size_t workers) {
  if (workers <= 1) return sculli(sc, ws);
  const exp::Workspace::Frame frame(ws);
  const graph::Dag& g = sc.dag();
  if (g.task_count() == 0) {
    throw std::invalid_argument("sculli: empty graph");
  }
  const std::span<const double> p = sc.p_success();
  const core::RetryModel kind = sc.retry();
  const std::span<prob::NormalMoments> completion =
      ws.moments(sc.task_count());
  const graph::CsrDag& csr = sc.csr();
  const std::span<const graph::TaskId> order = csr.order();
  const graph::LevelChunks& fwd = sc.level_sets().fwd;
  exp::lp::run_leveled(workers, fwd,
                       [&](std::uint32_t b, std::uint32_t e) {
    for (std::uint32_t i = b; i < e; ++i) {
      sculli_vertex(g, p, kind, completion, order[fwd.order[i]]);
    }
  });
  return sculli_exits(completion, sc.exits());
}

}  // namespace expmk::normal
