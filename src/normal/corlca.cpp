#include "normal/corlca.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exp/level_parallel.hpp"
#include "graph/level_sets.hpp"

namespace expmk::normal {

namespace {

constexpr graph::TaskId kRootless = graph::kNoTask;

/// Correlation-tree state: parent pointers, depths, and the variance of
/// each node's completion time. A view over caller-provided storage
/// (fresh vectors or workspace leases); init() reproduces the fills the
/// old owning constructor performed.
struct CorrelationTree {
  std::span<graph::TaskId> parent;
  std::span<std::uint32_t> depth;
  std::span<double> variance;

  void init() const {
    std::fill(parent.begin(), parent.end(), kRootless);
    std::fill(depth.begin(), depth.end(), 0u);
    std::fill(variance.begin(), variance.end(), 0.0);
  }

  /// Lowest common ancestor by depth-aligned walk; kRootless when the two
  /// lineages never meet (independent subtrees).
  [[nodiscard]] graph::TaskId lca(graph::TaskId a, graph::TaskId b) const {
    if (a == kRootless || b == kRootless) return kRootless;
    while (a != b) {
      if (a == kRootless || b == kRootless) return kRootless;
      if (depth[a] >= depth[b]) {
        a = parent[a];
      } else {
        b = parent[b];
      }
      if (a == kRootless || b == kRootless) return kRootless;
    }
    return a;
  }
};

}  // namespace

namespace {

/// One vertex of the CorLCA fold: reads completion moments and
/// correlation-tree state of ancestors only — the dominant lineage is a
/// predecessor and every LCA walk climbs parent pointers of ancestors,
/// all at strictly earlier levels — and writes only v's own slots. That
/// containment is what makes the leveled-parallel sweep bit-identical to
/// the serial topological one.
EXPMK_NOALLOC void corlca_vertex(const graph::Dag& g,
                                 std::span<const double> p,
                                 core::RetryModel kind,
                                 std::span<prob::NormalMoments> completion,
                                 const CorrelationTree& tree,
                                 graph::TaskId v) {
  prob::NormalMoments ready{0.0, 0.0};
  graph::TaskId dominant = kRootless;
  bool first = true;
  for (const graph::TaskId u : g.predecessors(v)) {
    if (first) {
      ready = completion[u];
      dominant = u;
      first = false;
      continue;
    }
    // Correlation through the LCA of the current dominant lineage and u.
    const graph::TaskId anc = tree.lca(dominant, u);
    const double cov = anc == kRootless ? 0.0 : tree.variance[anc];
    const double denom =
        std::sqrt(ready.var) * std::sqrt(completion[u].var);
    const double rho = denom > 0.0 ? cov / denom : 0.0;
    const auto fold = prob::clark_max(ready, completion[u], rho);
    // The operand with the larger mean dominates the lineage.
    if (completion[u].mean > ready.mean) dominant = u;
    ready = fold.moments;
  }
  completion[v] = prob::sum_independent(
      ready, duration_moments_p(g.weight(v), p[v], kind));
  tree.parent[v] = dominant;
  tree.depth[v] = dominant == kRootless ? 0 : tree.depth[dominant] + 1;
  tree.variance[v] = completion[v].var;
}

/// Folds the exit completions into the makespan estimate (serial — the
/// fold order over `exits` is part of the pinned arithmetic).
EXPMK_NOALLOC NormalEstimate corlca_exits(
    std::span<const prob::NormalMoments> completion,
    const CorrelationTree& tree, std::span<const graph::TaskId> exits) {
  prob::NormalMoments makespan{0.0, 0.0};
  graph::TaskId dominant = kRootless;
  bool first = true;
  for (const graph::TaskId v : exits) {
    if (first) {
      makespan = completion[v];
      dominant = v;
      first = false;
      continue;
    }
    const graph::TaskId anc = tree.lca(dominant, v);
    const double cov = anc == kRootless ? 0.0 : tree.variance[anc];
    const double denom = std::sqrt(makespan.var) * std::sqrt(completion[v].var);
    const double rho = denom > 0.0 ? cov / denom : 0.0;
    const auto fold = prob::clark_max(makespan, completion[v], rho);
    if (completion[v].mean > makespan.mean) dominant = v;
    makespan = fold.moments;
  }
  return NormalEstimate{makespan};
}

/// Shared traversal over per-task success probabilities (see sculli.cpp:
/// the fold is pure dataflow, so the topological order does not perturb
/// the values).
///
/// Unlike clark_full's dense row linkage, CorLCA's rho-propagation is a
/// depth-aligned parent-pointer walk (lca above) — data-dependent pointer
/// chasing with no elementwise loop to block or vectorize, and its O(V)
/// tree state is already cache-resident. It deliberately stays scalar
/// per vertex while clark_full and second_order got blocked/vectorized
/// sweeps; the level-parallel entry point spreads whole vertices instead.
EXPMK_NOALLOC NormalEstimate corlca_impl(const graph::Dag& g,
                           std::span<const graph::TaskId> topo,
                           std::span<const double> p, core::RetryModel kind,
                           std::span<prob::NormalMoments> completion,
                           const CorrelationTree& tree,
                           std::span<const graph::TaskId> exits) {
  const std::size_t n = g.task_count();
  if (n == 0) throw std::invalid_argument("corlca: empty graph");
  tree.init();
  for (const graph::TaskId v : topo) {
    corlca_vertex(g, p, kind, completion, tree, v);
  }
  return corlca_exits(completion, tree, exits);
}

}  // namespace

EXPMK_NOALLOC NormalEstimate corlca(const scenario::Scenario& sc, exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const std::size_t n = sc.task_count();
  return corlca_impl(sc.dag(), sc.topo(), sc.p_success(), sc.retry(),
                     ws.moments(n),
                     CorrelationTree{ws.u32(n), ws.u32(n), ws.doubles(n)},
                     sc.exits());
}

NormalEstimate corlca(const scenario::Scenario& sc, exp::Workspace& ws,
                      std::size_t workers) {
  if (workers <= 1) return corlca(sc, ws);
  const exp::Workspace::Frame frame(ws);
  const graph::Dag& g = sc.dag();
  const std::size_t n = sc.task_count();
  if (n == 0) throw std::invalid_argument("corlca: empty graph");
  const std::span<const double> p = sc.p_success();
  const core::RetryModel kind = sc.retry();
  const std::span<prob::NormalMoments> completion = ws.moments(n);
  const CorrelationTree tree{ws.u32(n), ws.u32(n), ws.doubles(n)};
  tree.init();
  const graph::CsrDag& csr = sc.csr();
  const std::span<const graph::TaskId> order = csr.order();
  const graph::LevelChunks& fwd = sc.level_sets().fwd;
  exp::lp::run_leveled(workers, fwd,
                       [&](std::uint32_t b, std::uint32_t e) {
    for (std::uint32_t i = b; i < e; ++i) {
      corlca_vertex(g, p, kind, completion, tree, order[fwd.order[i]]);
    }
  });
  return corlca_exits(completion, tree, sc.exits());
}

}  // namespace expmk::normal
