// bench/bench_common.hpp
//
// Shared plumbing for the figure/table reproduction binaries: run the
// three estimators of the paper (First Order, Dodin, Normal/Sculli) plus
// our extensions against the Monte-Carlo ground truth on one DAG, timing
// each, and emit rows in the format the paper reports (signed normalized
// difference with Monte Carlo).

#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "exp/workspace.hpp"
#include "graph/dag.hpp"
#include "mc/engine.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"
#include "util/json_writer.hpp"
#include "util/timer.hpp"

namespace expmk::bench {

/// The JSON emitter moved into the library (util/json_writer.hpp) when the
/// sweep subsystem started emitting artifacts; the bench binaries keep
/// using it under the historical name.
using JsonWriter = util::JsonWriter;

/// One estimator's outcome on one (DAG, pfail) cell.
struct MethodOutcome {
  double estimate = 0.0;
  double seconds = 0.0;
  /// (estimate - mc_mean) / mc_mean; the paper's "normalized difference
  /// with Monte-Carlo". Negative = underestimation.
  double normalized_difference = 0.0;
};

/// All estimators on one cell.
struct CellResult {
  double pfail = 0.0;
  double lambda = 0.0;
  double mc_mean = 0.0;
  double mc_ci95 = 0.0;
  double mc_seconds = 0.0;
  double critical_path = 0.0;
  MethodOutcome first_order;
  MethodOutcome dodin;
  MethodOutcome sculli;   ///< the paper's "Normal"
  MethodOutcome second_order;
  MethodOutcome corlca;
  MethodOutcome clark_full;
};

/// Which optional estimators to run (the paper's three always run).
struct CellOptions {
  std::uint64_t mc_trials = 300'000;  ///< the paper's trial count
  std::uint64_t mc_seed = 2016;
  std::size_t dodin_atoms = 256;
  bool run_second_order = false;
  bool run_corlca = false;
  bool run_clark_full = false;
  /// Monte-Carlo retry model; Geometric reproduces the paper's simulator
  /// (time-to-failure resampled per attempt).
  core::RetryModel mc_retry = core::RetryModel::Geometric;
  /// Use the control-variate estimator for a tighter ground truth at the
  /// same trial count (off by default: the paper uses the plain mean).
  bool mc_control_variate = false;
};

inline CellResult evaluate_cell(const graph::Dag& g, double pfail,
                                const CellOptions& opt) {
  CellResult cell;
  cell.pfail = pfail;
  const core::FailureModel model = core::calibrate(g, pfail);
  cell.lambda = model.lambda;

  // One compiled scenario per retry model the cell needs; every method
  // below reads it (compile time is not charged to any method).
  const auto two_state = scenario::Scenario::compile(g, model);
  const auto geometric =
      scenario::Scenario::compile(g, model, core::RetryModel::Geometric);
  exp::Workspace& ws = exp::Workspace::local();

  mc::McConfig mc_cfg;
  mc_cfg.trials = opt.mc_trials;
  mc_cfg.seed = opt.mc_seed;
  mc_cfg.control_variate = opt.mc_control_variate;
  const auto mc = mc::run_monte_carlo(
      opt.mc_retry == core::RetryModel::Geometric ? geometric : two_state,
      mc_cfg);
  cell.mc_mean = mc.mean;
  cell.mc_ci95 = mc.ci95_half_width;
  cell.mc_seconds = mc.seconds;

  const auto diff = [&](double est) { return (est - mc.mean) / mc.mean; };
  {
    const util::Timer t;
    const auto r = core::first_order(two_state, ws);
    cell.first_order.seconds = t.seconds();
    cell.first_order.estimate = r.expected_makespan();
    cell.critical_path = r.critical_path;
  }
  {
    const util::Timer t;
    const auto r =
        sp::dodin_two_state(two_state, {.max_atoms = opt.dodin_atoms}, ws);
    cell.dodin.seconds = t.seconds();
    cell.dodin.estimate = r.expected_makespan();
  }
  {
    const util::Timer t;
    const auto r = normal::sculli(two_state, ws);
    cell.sculli.seconds = t.seconds();
    cell.sculli.estimate = r.expected_makespan();
  }
  if (opt.run_second_order) {
    const util::Timer t;
    const auto r = core::second_order(geometric, ws);
    cell.second_order.seconds = t.seconds();
    cell.second_order.estimate = r.expected_makespan;
  }
  if (opt.run_corlca) {
    const util::Timer t;
    const auto r = normal::corlca(two_state, ws);
    cell.corlca.seconds = t.seconds();
    cell.corlca.estimate = r.expected_makespan();
  }
  if (opt.run_clark_full) {
    const util::Timer t;
    const auto r = normal::clark_full(two_state, ws);
    cell.clark_full.seconds = t.seconds();
    cell.clark_full.estimate = r.expected_makespan();
  }

  for (MethodOutcome* m :
       {&cell.first_order, &cell.dodin, &cell.sculli, &cell.second_order,
        &cell.corlca, &cell.clark_full}) {
    if (m->seconds > 0.0 || m->estimate != 0.0) {
      m->normalized_difference = diff(m->estimate);
    }
  }
  return cell;
}

}  // namespace expmk::bench
