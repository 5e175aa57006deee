// Tests for the paper's core contribution (Section IV): the closed-form
// first-order approximation. Checks the closed form against the naive
// per-task recompute, against analytic cases, and the O(lambda^2)
// approximation-order property against the exact oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "gen/random_dags.hpp"
#include "graph/longest_path.hpp"
#include "graph/topological.hpp"
#include "test_helpers.hpp"

using expmk::exp::Workspace;
using expmk::test::compile;

namespace {

using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::first_order;
using expmk::core::first_order_naive;

TEST(FirstOrder, ZeroLambdaGivesCriticalPath) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const auto r = first_order(compile(g, FailureModel{0.0}), Workspace::local());
  EXPECT_DOUBLE_EQ(r.expected_makespan(), 8.0);
  EXPECT_DOUBLE_EQ(r.correction, 0.0);
}

TEST(FirstOrder, SingleTaskClosedForm) {
  // One task of weight a: E = a + lambda * a^2 (first order).
  expmk::graph::Dag g;
  g.add_task(2.0);
  const double lambda = 0.01;
  const auto r =
      first_order(compile(g, FailureModel{lambda}), Workspace::local());
  EXPECT_NEAR(r.expected_makespan(), 2.0 + lambda * 4.0, 1e-15);
}

TEST(FirstOrder, ChainClosedForm) {
  // Chain of n tasks, weight a each: every task is critical, so
  // FO = n a + lambda a^2 n.
  const int n = 6;
  const double a = 0.5, lambda = 0.02;
  const auto g = expmk::gen::uniform_chain(n, a);
  const auto r =
      first_order(compile(g, FailureModel{lambda}), Workspace::local());
  EXPECT_NEAR(r.expected_makespan(), n * a + lambda * a * a * n, 1e-12);
}

TEST(FirstOrder, ForkJoinOnlyCriticalBranchContributesFully) {
  // FORK(0) -> branches -> JOIN(0): branches b1 = 2 (critical), b2 = 1.
  // d(G) = 2. Doubling b1: d = 4 (delta 2); doubling b2: d = max(2, 2) = 2
  // (delta 0). FO = 2 + lambda * (2*2 + 1*0).
  expmk::graph::Dag g;
  const auto f = g.add_task(0.0);
  const auto j = g.add_task(0.0);
  const auto b1 = g.add_task(2.0);
  const auto b2 = g.add_task(1.0);
  g.add_edge(f, b1);
  g.add_edge(f, b2);
  g.add_edge(b1, j);
  g.add_edge(b2, j);
  const double lambda = 0.05;
  const auto r =
      first_order(compile(g, FailureModel{lambda}), Workspace::local());
  EXPECT_NEAR(r.expected_makespan(), 2.0 + lambda * 4.0, 1e-12);
}

TEST(FirstOrder, NearCriticalBranchContributesPartially) {
  // Branches 2 and 1.5: doubling the short one reaches 3 > 2, delta = 1.
  expmk::graph::Dag g;
  const auto b1 = g.add_task(2.0);
  const auto b2 = g.add_task(1.5);
  (void)b1;
  (void)b2;
  const double lambda = 0.03;
  const auto r =
      first_order(compile(g, FailureModel{lambda}), Workspace::local());
  // FO = 2 + lambda (2 * 2 + 1.5 * 1).
  EXPECT_NEAR(r.expected_makespan(), 2.0 + lambda * 5.5, 1e-12);
}

TEST(FirstOrder, MonotoneInLambdaAndAboveCriticalPath) {
  const auto g = expmk::gen::cholesky_dag(5);
  double prev = expmk::graph::critical_path_length(g);
  for (const double lambda : {0.001, 0.01, 0.1, 1.0}) {
    const auto r =
        first_order(compile(g, FailureModel{lambda}), Workspace::local());
    EXPECT_GE(r.expected_makespan(), prev - 1e-12);
    prev = r.expected_makespan();
  }
}

// The headline property: closed form == naive recompute, everywhere.
class FirstOrderEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FirstOrderEquivalenceSweep, ClosedFormMatchesNaive) {
  const auto seed = GetParam();
  const FailureModel m{0.01};
  for (const auto& g :
       {expmk::gen::erdos_dag(40, 0.15, seed),
        expmk::gen::layered_random(6, 5, 0.4, seed),
        expmk::gen::random_series_parallel(30, seed)}) {
    const double closed =
        first_order(compile(g, m), Workspace::local()).expected_makespan();
    const double naive = first_order_naive(g, m);
    EXPECT_NEAR(closed, naive, 1e-10 * std::max(1.0, naive));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstOrderEquivalenceSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

TEST(FirstOrder, ClosedFormMatchesNaiveOnFactorizations) {
  const FailureModel m{0.05};
  for (const auto& g :
       {expmk::gen::cholesky_dag(6), expmk::gen::lu_dag(5),
        expmk::gen::qr_dag(5)}) {
    EXPECT_NEAR(first_order(compile(g, m),
                            Workspace::local()).expected_makespan(),
                first_order_naive(g, m), 1e-9);
  }
}

// |FO - exact| = O(lambda^2): halving lambda must shrink the error by
// about 4x (we allow [2.8, 5.5] for higher-order contamination).
TEST(FirstOrder, ErrorIsSecondOrderInLambda) {
  const auto g = expmk::gen::erdos_dag(12, 0.3, 99);
  const double l1 = 0.08, l2 = 0.04;
  const auto sc1 = compile(g, FailureModel{l1});
  const auto sc2 = compile(g, FailureModel{l2});
  const double e1 =
      std::fabs(first_order(sc1, Workspace::local()).expected_makespan() -
                exact_two_state(sc1, Workspace::local()));
  const double e2 =
      std::fabs(first_order(sc2, Workspace::local()).expected_makespan() -
                exact_two_state(sc2, Workspace::local()));
  ASSERT_GT(e1, 0.0);
  ASSERT_GT(e2, 0.0);
  const double ratio = e1 / e2;
  EXPECT_GT(ratio, 2.8) << "e1=" << e1 << " e2=" << e2;
  EXPECT_LT(ratio, 5.5) << "e1=" << e1 << " e2=" << e2;
}

TEST(FirstOrder, TinyLambdaNearExact) {
  const auto g = expmk::test::diamond(0.1, 0.2, 0.3, 0.1);
  const FailureModel m{1e-5};
  const auto sc = compile(g, m);
  const double fo = first_order(sc, Workspace::local()).expected_makespan();
  const double exact = exact_two_state(sc, Workspace::local());
  EXPECT_NEAR(fo, exact, 1e-9);
}

TEST(FirstOrder, ZeroWeightTasksContributeNothing) {
  expmk::graph::Dag g;
  const auto a = g.add_task(0.0);
  const auto b = g.add_task(1.0);
  g.add_edge(a, b);
  const auto r = first_order(compile(g, FailureModel{0.1}), Workspace::local());
  EXPECT_NEAR(r.expected_makespan(), 1.0 + 0.1 * 1.0, 1e-12);
}

}  // namespace
