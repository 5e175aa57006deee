// Tests for normal/sculli: the paper's "Normal" estimator. Chains are
// exact (sums of normals), maxima match Clark, and duration moments match
// the 2-state/geometric algebra.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/longest_path.hpp"
#include "normal/sculli.hpp"
#include "test_helpers.hpp"

using expmk::exp::Workspace;
using expmk::test::compile;

namespace {

using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::normal::duration_moments;
using expmk::normal::sculli;

TEST(DurationMoments, TwoStateAlgebra) {
  const FailureModel m{0.1};
  const double a = 2.0;
  const double p = m.p_success(a);
  const auto d = duration_moments(a, m, RetryModel::TwoState);
  EXPECT_NEAR(d.mean, a * (2.0 - p), 1e-15);
  EXPECT_NEAR(d.var, a * a * p * (1.0 - p), 1e-15);
}

TEST(DurationMoments, GeometricAlgebra) {
  const FailureModel m{0.1};
  const double a = 2.0;
  const double p = m.p_success(a);
  const auto d = duration_moments(a, m, RetryModel::Geometric);
  EXPECT_NEAR(d.mean, a / p, 1e-12);
  EXPECT_NEAR(d.var, a * a * (1.0 - p) / (p * p), 1e-12);
}

TEST(DurationMoments, ZeroWeightAndErrors) {
  const FailureModel m{0.1};
  const auto d = duration_moments(0.0, m);
  EXPECT_DOUBLE_EQ(d.mean, 0.0);
  EXPECT_DOUBLE_EQ(d.var, 0.0);
  EXPECT_THROW((void)duration_moments(-1.0, m), std::invalid_argument);
}

TEST(Sculli, ChainIsExact) {
  // A chain has no max: Sculli's sum of moments is the exact expectation.
  const auto g = expmk::gen::uniform_chain(6, 0.4);
  const FailureModel m{0.15};
  const auto sc = compile(g, m);
  const auto r = sculli(sc, Workspace::local());
  EXPECT_NEAR(r.expected_makespan(), exact_two_state(sc, Workspace::local()),
              1e-12);
  // Variance is the sum of task variances.
  const double p = m.p_success(0.4);
  EXPECT_NEAR(r.makespan.var, 6.0 * 0.4 * 0.4 * p * (1.0 - p), 1e-12);
}

TEST(Sculli, ZeroLambdaIsCriticalPath) {
  const auto g = expmk::gen::cholesky_dag(4);
  const auto r = sculli(compile(g, FailureModel{0.0}), Workspace::local());
  EXPECT_NEAR(r.expected_makespan(), expmk::graph::critical_path_length(g),
              1e-9);
  EXPECT_NEAR(r.makespan.var, 0.0, 1e-12);
}

TEST(Sculli, TwoIndependentTasksMatchClarkDirectly) {
  expmk::graph::Dag g;
  g.add_task(1.0);
  g.add_task(0.9);
  const FailureModel m{0.3};
  const auto x = duration_moments(1.0, m);
  const auto y = duration_moments(0.9, m);
  const auto fold = expmk::prob::clark_max(x, y, 0.0);
  const auto r = sculli(compile(g, m), Workspace::local());
  EXPECT_NEAR(r.expected_makespan(), fold.moments.mean, 1e-12);
  EXPECT_NEAR(r.makespan.var, fold.moments.var, 1e-12);
}

TEST(Sculli, EstimateAboveCriticalPath) {
  // E[max] >= max of means >= critical path built on mean durations >=
  // d(G): Sculli should never fall below the failure-free makespan.
  const auto g = expmk::gen::erdos_dag(30, 0.15, 3);
  const FailureModel m{0.05};
  EXPECT_GE(sculli(compile(g, m), Workspace::local()).expected_makespan(),
            expmk::graph::critical_path_length(g) - 1e-9);
}

TEST(Sculli, ReasonablyCloseToExactOnSmallGraphs) {
  // Sculli is an approximation; on small graphs with modest lambda it
  // should land within a few percent of exact.
  const auto g = expmk::gen::erdos_dag(12, 0.3, 17);
  const FailureModel m{0.05};
  const auto sc = compile(g, m);
  const double exact = exact_two_state(sc, Workspace::local());
  EXPECT_NEAR(sculli(sc, Workspace::local()).expected_makespan(), exact,
              0.05 * exact);
}

TEST(Sculli, GeometricModeShiftsUpward) {
  const auto g = expmk::gen::cholesky_dag(4);
  const FailureModel m{0.5};
  const auto geo = compile(g, m, RetryModel::Geometric);
  const auto two_state = compile(g, m, RetryModel::TwoState);
  EXPECT_GT(sculli(geo, Workspace::local()).expected_makespan(),
            sculli(two_state, Workspace::local()).expected_makespan());
}

TEST(Sculli, EmptyGraphThrows) {
  const auto sc = compile(expmk::graph::Dag{}, FailureModel{0.1});
  EXPECT_THROW((void)sculli(sc, Workspace::local()), std::invalid_argument);
}

}  // namespace
