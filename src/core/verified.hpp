// core/verified.hpp
//
// First-order estimator with explicit verification costs — the natural
// generalization the paper's model implies but folds away. The paper
// detects silent errors with a verification after each task and treats
// its cost as part of a_i; here the cost is explicit: task i computes for
// a_i (during which silent errors strike at rate lambda) and then runs a
// verification of duration v_i (assumed reliable, as in the paper's
// references [36-38] where detectors are cheap analytics).
//
// Effective durations: success a_i + v_i; one failure 2(a_i + v_i) (the
// failed attempt is verified too — that is how the failure is noticed).
// The failure probability involves only the compute part: 1 - e^{-l a_i}.
// The first-order machinery then applies verbatim on weights a_i + v_i
// with per-task failure "mass" a_i:
//
//   E(G) ~ d(G_w) + lambda * sum_i a_i * (d(G_w, i doubled) - d(G_w)),
//   w_i = a_i + v_i.

#pragma once

#include <span>
#include <vector>

#include "core/first_order.hpp"
#include "graph/dag.hpp"
#include "scenario/scenario.hpp"

namespace expmk::core {

/// Verification-cost schedule: either one relative factor for all tasks
/// (v_i = factor * a_i) or explicit per-task costs.
struct VerificationCosts {
  /// v_i = relative_cost * a_i when per_task is empty.
  double relative_cost = 0.0;
  /// Explicit v_i (size must match the DAG when non-empty).
  std::vector<double> per_task;

  /// Resolves v_i for a DAG; validates sizes/signs.
  [[nodiscard]] std::vector<double> resolve(const graph::Dag& g) const;
};

/// First-order expected makespan with verification costs. With all-zero
/// costs this equals first_order() exactly (tested). Heterogeneous rates
/// generalize the correction term-by-term (failure mass lambda_i a_i per
/// task, like first_order). The verified weights w_i = a_i + v_i differ
/// from the scenario's cached weights, so the level pass runs on its own
/// weight vector.
[[nodiscard]] FirstOrderResult first_order_verified(
    const scenario::Scenario& sc, const VerificationCosts& costs);

}  // namespace expmk::core
