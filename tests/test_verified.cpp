// Tests for core/verified: the first-order estimator with explicit
// verification costs.

#include <gtest/gtest.h>

#include "core/first_order.hpp"
#include "core/verified.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

using expmk::exp::Workspace;
using expmk::test::compile;

namespace {

using expmk::core::FailureModel;
using expmk::core::first_order;
using expmk::core::first_order_verified;
using expmk::core::VerificationCosts;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;

TEST(Verified, ZeroCostMatchesPlainFirstOrder) {
  const auto g = expmk::gen::cholesky_dag(5);
  const FailureModel m{0.02};
  const auto sc = compile(g, m);
  const auto plain = first_order(sc, Workspace::local());
  const auto verified = first_order_verified(sc, {});
  EXPECT_DOUBLE_EQ(verified.expected_makespan(), plain.expected_makespan());
  EXPECT_DOUBLE_EQ(verified.critical_path, plain.critical_path);
}

TEST(Verified, RelativeCostStretchesCriticalPath) {
  const auto g = expmk::gen::cholesky_dag(4);
  const FailureModel m{0.01};
  VerificationCosts costs;
  costs.relative_cost = 0.10;  // v_i = 10% of a_i
  const auto sc = compile(g, m);
  const auto r = first_order_verified(sc, costs);
  const auto plain = first_order(sc, Workspace::local());
  EXPECT_NEAR(r.critical_path, 1.10 * plain.critical_path, 1e-9);
  EXPECT_GT(r.expected_makespan(), plain.expected_makespan());
}

TEST(Verified, SingleTaskClosedForm) {
  // One task: weight a, verification v. d = a + v; failure doubles it but
  // the failure mass is lambda * a only:
  //   E = (a+v) + lambda * a * (a+v).
  expmk::graph::Dag g;
  g.add_task(2.0);
  const double lambda = 0.01, v = 0.5;
  VerificationCosts costs;
  costs.per_task = {v};
  const auto r = first_order_verified(compile(g, FailureModel{lambda}), costs);
  EXPECT_NEAR(r.expected_makespan(), 2.5 + lambda * 2.0 * 2.5, 1e-12);
}

TEST(Verified, PerTaskCostsValidated) {
  const auto g = expmk::test::diamond();
  VerificationCosts bad_size;
  bad_size.per_task = {0.1};
  const auto sc = compile(g, FailureModel{0.01});
  EXPECT_THROW((void)first_order_verified(sc, bad_size), std::invalid_argument);
  VerificationCosts negative;
  negative.per_task = {0.1, -0.1, 0.1, 0.1};
  EXPECT_THROW((void)first_order_verified(sc, negative), std::invalid_argument);
  VerificationCosts neg_rel;
  neg_rel.relative_cost = -0.5;
  EXPECT_THROW((void)first_order_verified(sc, neg_rel), std::invalid_argument);
}

TEST(Verified, EquivalentToPlainOnInflatedWeightsWhenUniform) {
  // With v_i = c * a_i, effective weights are (1+c) a_i; the correction
  // uses failure mass a_i, so the verified result equals the plain first
  // order on the inflated graph scaled back in the failure mass:
  //   correction_verified = correction_plain_on_inflated / (1+c).
  const auto g = expmk::gen::erdos_dag(20, 0.2, 11);
  const double c = 0.25, lambda = 0.02;
  VerificationCosts costs;
  costs.relative_cost = c;
  const auto verified =
      first_order_verified(compile(g, FailureModel{lambda}), costs);

  expmk::graph::Dag inflated = g;
  for (expmk::graph::TaskId i = 0; i < g.task_count(); ++i) {
    inflated.set_weight(i, (1.0 + c) * g.weight(i));
  }
  const auto plain =
      first_order(compile(inflated, FailureModel{lambda}), Workspace::local());
  EXPECT_NEAR(verified.critical_path, plain.critical_path, 1e-12);
  EXPECT_NEAR(verified.correction, plain.correction / (1.0 + c), 1e-9);
}

TEST(Verified, CostOnCriticalTaskMattersMore) {
  // Two independent tasks 2.0 and 1.0: verification on the critical task
  // raises the estimate more than the same absolute cost on the slack one.
  expmk::graph::Dag g;
  g.add_task(2.0);
  g.add_task(1.0);
  const FailureModel m{0.01};
  VerificationCosts on_critical;
  on_critical.per_task = {0.3, 0.0};
  VerificationCosts on_slack;
  on_slack.per_task = {0.0, 0.3};
  const auto sc = compile(g, m);
  EXPECT_GT(first_order_verified(sc, on_critical).expected_makespan(),
            first_order_verified(sc, on_slack).expected_makespan());
}

// The heterogeneous branch: a per-task rate vector holding one constant
// rate is the uniform model by another code path (lambda folded per task
// instead of once), so the two must agree to rounding.
TEST(Verified, ConstantPerTaskRatesMatchUniform) {
  for (const auto& g :
       {expmk::gen::cholesky_dag(4), expmk::gen::erdos_dag(20, 0.2, 11)}) {
    const double lambda = 0.02;
    const Scenario uniform = compile(g, FailureModel{lambda});
    const Scenario per_task = Scenario::compile(
        g, FailureSpec::per_task(std::vector<double>(g.task_count(), lambda)));
    ASSERT_TRUE(per_task.heterogeneous());
    VerificationCosts relative;
    relative.relative_cost = 0.2;
    VerificationCosts scattered;
    for (expmk::graph::TaskId i = 0; i < g.task_count(); ++i) {
      scattered.per_task.push_back(0.05 * static_cast<double>(i % 4));
    }
    for (const VerificationCosts& costs :
         {VerificationCosts{}, relative, scattered}) {
      const auto u = first_order_verified(uniform, costs);
      const auto h = first_order_verified(per_task, costs);
      EXPECT_EQ(h.critical_path, u.critical_path);
      EXPECT_NEAR(h.expected_makespan(), u.expected_makespan(),
                  1e-12 * u.expected_makespan());
    }
  }
}

// Distinct per-task rates: on a two-task chain every task is critical, so
// the correction is sum_i lambda_i a_i (a_i + v_i) term by term.
TEST(Verified, PerTaskRatesWeightEachTasksFailureMass) {
  expmk::graph::Dag g;
  const auto a = g.add_task(2.0);
  const auto b = g.add_task(1.0);
  g.add_edge(a, b);
  const Scenario sc =
      Scenario::compile(g, FailureSpec::per_task({0.01, 0.04}));
  VerificationCosts costs;
  costs.per_task = {0.5, 0.25};
  const auto r = first_order_verified(sc, costs);
  EXPECT_NEAR(r.critical_path, 3.75, 1e-15);
  EXPECT_NEAR(r.correction, 0.01 * 2.0 * 2.5 + 0.04 * 1.0 * 1.25, 1e-15);
}

}  // namespace
