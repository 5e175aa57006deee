// Tests for exp::evaluate_many, the batch front door:
//
//  * upfront method resolution (unknown names throw before any work);
//  * index alignment: result i is BIT-identical to a single evaluate()
//    call with the documented derived seed;
//  * the determinism contract: results are bitwise independent of the
//    thread count (threads 1 / 2 / 7), including the stochastic methods;
//  * duplicate stochastic requests draw decorrelated (per-index) streams;
//  * capability gating surfaces as supported == false inside the batch,
//    never as an exception crossing evaluate_many.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/evaluate_many.hpp"
#include "exp/evaluator.hpp"
#include "exp/seeds.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace {

using expmk::core::calibrate;
using expmk::core::RetryModel;
using expmk::exp::derive_seed;
using expmk::exp::EvalOptions;
using expmk::exp::EvalRequest;
using expmk::exp::EvalResult;
using expmk::exp::evaluate_many;
using expmk::exp::EvaluatorRegistry;
using expmk::graph::Dag;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;
using expmk::util::ThreadPool;

Scenario compile_fixture() {
  const Dag g = expmk::gen::erdos_dag(14, 0.25, 21);
  return Scenario::compile(g, FailureSpec(calibrate(g, 0.01)),
                           RetryModel::TwoState);
}

void expect_bit_identical(const EvalResult& a, const EvalResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.supported, b.supported) << where;
  EXPECT_EQ(a.note, b.note) << where;
  EXPECT_EQ(a.censored_trials, b.censored_trials) << where;
  if (std::isnan(a.mean) || std::isnan(b.mean)) {
    EXPECT_TRUE(std::isnan(a.mean) && std::isnan(b.mean)) << where;
  } else {
    EXPECT_EQ(a.mean, b.mean) << where;
  }
  EXPECT_EQ(a.std_error, b.std_error) << where;
}

TEST(EvaluateMany, UnknownMethodThrowsBeforeAnyWork) {
  const Scenario sc = compile_fixture();
  std::vector<EvalRequest> requests(2);
  requests[0].method = "fo";
  requests[1].method = "no-such-method";
  ThreadPool pool(2);
  EXPECT_THROW((void)evaluate_many(sc, requests, pool), std::invalid_argument);
}

TEST(EvaluateMany, EmptyBatchReturnsEmpty) {
  const Scenario sc = compile_fixture();
  ThreadPool pool(2);
  EXPECT_TRUE(evaluate_many(sc, {}, pool).empty());
}

TEST(EvaluateMany, ResultsIndexAlignedAndMatchSingleEvaluate) {
  const Scenario sc = compile_fixture();
  std::vector<EvalRequest> requests;
  for (const char* m : {"fo", "so", "bounds.lower", "bounds.upper",
                        "sculli", "corlca", "clark", "mc", "cmc"}) {
    EvalRequest req;
    req.method = m;
    req.options.mc_trials = 2'000;
    req.options.seed = 4242;
    requests.push_back(req);
  }

  ThreadPool pool(3);
  const auto batch = evaluate_many(sc, requests, pool);
  ASSERT_EQ(batch.size(), requests.size());

  const auto& reg = EvaluatorRegistry::builtin();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // The documented contract: request i runs with the derived seed and
    // evaluator-internal threads forced to 1.
    EvalOptions expected = requests[i].options;
    expected.seed = derive_seed(requests[i].options.seed, i);
    expected.threads = 1;
    const EvalResult single =
        reg.find(requests[i].method)->evaluate(sc, expected);
    expect_bit_identical(batch[i], single,
                         requests[i].method + std::string(" / index ") +
                             std::to_string(i));
  }
}

TEST(EvaluateMany, BitIdenticalForAnyThreadCount) {
  const Scenario sc = compile_fixture();
  std::vector<EvalRequest> requests;
  for (int copy = 0; copy < 3; ++copy) {
    for (const char* m : {"mc", "fo", "cmc", "so", "sculli"}) {
      EvalRequest req;
      req.method = m;
      req.options.mc_trials = 1'500;
      req.options.seed = 99;
      requests.push_back(req);
    }
  }

  ThreadPool pool1(1);
  const auto one = evaluate_many(sc, requests, pool1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    ThreadPool pool(threads);
    const auto many = evaluate_many(sc, requests, pool);
    ASSERT_EQ(many.size(), one.size()) << threads;
    for (std::size_t i = 0; i < one.size(); ++i) {
      expect_bit_identical(many[i], one[i],
                           "threads " + std::to_string(threads) +
                               " / index " + std::to_string(i));
    }
  }
}

TEST(EvaluateMany, DuplicateStochasticRequestsDecorrelate) {
  const Scenario sc = compile_fixture();
  std::vector<EvalRequest> requests(2);
  for (auto& req : requests) {
    req.method = "mc";
    req.options.mc_trials = 500;
    req.options.seed = 7;
  }
  ThreadPool pool(2);
  const auto results = evaluate_many(sc, requests, pool);
  ASSERT_TRUE(results[0].supported);
  ASSERT_TRUE(results[1].supported);
  // Identical requests, different batch indices => different derived
  // seeds => (almost surely) different finite-sample means.
  EXPECT_NE(results[0].mean, results[1].mean);
}

TEST(EvaluateMany, CapabilityGatingStaysInsideTheBatch) {
  // Since the flat-distribution-engine refactor every builtin method
  // handles heterogeneous rates, so the gating fixture is the retry
  // model: dodin is a two-state method and must gate (not crash) on a
  // geometric scenario while fo in the same batch still runs.
  const Dag g = expmk::test::diamond();
  const std::vector<double> rates = {0.1, 0.2, 0.3, 0.1};
  const Scenario het_geo = Scenario::compile(g, FailureSpec::per_task(rates),
                                             RetryModel::Geometric);
  std::vector<EvalRequest> requests(2);
  requests[0].method = "dodin";  // two-state only: gated under geometric
  requests[1].method = "fo";
  ThreadPool pool(2);
  const auto results = evaluate_many(het_geo, requests, pool);
  EXPECT_FALSE(results[0].supported);
  EXPECT_NE(results[0].note.find("geometric retry model"), std::string::npos);
  EXPECT_TRUE(results[1].supported);
  EXPECT_GT(results[1].mean, 0.0);
}

}  // namespace
