#include "mc/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "prob/statistics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace expmk::mc {

namespace {

/// Accumulators one worker fills for its slice of trials.
struct WorkerAccum {
  prob::RunningStats makespan;
  // Sums for the control-variate regression: Z, Z^2, L*Z.
  double sum_z = 0.0;
  double sum_zz = 0.0;
  double sum_lz = 0.0;
  std::vector<double> samples;
};

}  // namespace

McResult run_monte_carlo(const scenario::Scenario& sc,
                         const McConfig& config) {
  const TrialContext ctx(sc);
  // A zero trial count is a misconfiguration (an estimate from nothing),
  // not a request to round up: fail loudly instead of silently clamping.
  if (config.trials == 0) {
    throw std::invalid_argument("run_monte_carlo: trials must be >= 1");
  }
  const util::Timer timer;
  const std::size_t n = ctx.csr().task_count();

  std::size_t threads = config.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::uint64_t trials = config.trials;
  const std::size_t chunks = std::min<std::uint64_t>(kEngineChunks, trials);

  std::vector<WorkerAccum> accums(chunks);
  util::ThreadPool pool(threads);
  pool.parallel_for_chunks(chunks, [&](std::size_t c) {
    WorkerAccum& acc = accums[c];
    const std::uint64_t begin = trials * c / chunks;
    const std::uint64_t end = trials * (c + 1) / chunks;
    if (config.capture_samples) acc.samples.reserve(end - begin);
    // Per-worker scratch, sized once per chunk: the CSR kernel allocates
    // nothing per trial.
    std::vector<double> finish(n);
    for (std::uint64_t t = begin; t < end; ++t) {
      prob::McRng rng(config.seed, t);
      const TrialObservation obs =
          run_trial_with_control_csr(ctx, rng, finish);
      acc.makespan.push(obs.makespan);
      acc.sum_z += obs.control;
      acc.sum_zz += obs.control * obs.control;
      acc.sum_lz += obs.makespan * obs.control;
      if (config.capture_samples) acc.samples.push_back(obs.makespan);
    }
  });

  prob::RunningStats stats;
  double sum_z = 0.0, sum_zz = 0.0, sum_lz = 0.0;
  std::vector<double> samples;
  for (const WorkerAccum& acc : accums) {
    stats.merge(acc.makespan);
    sum_z += acc.sum_z;
    sum_zz += acc.sum_zz;
    sum_lz += acc.sum_lz;
    if (config.capture_samples) {
      samples.insert(samples.end(), acc.samples.begin(), acc.samples.end());
    }
  }

  McResult result;
  result.trials = stats.count();
  result.plain_mean = stats.mean();
  result.min = stats.min();
  result.max = stats.max();

  if (!config.control_variate) {
    result.mean = stats.mean();
    result.variance = stats.variance();
    result.std_error = stats.standard_error();
  } else {
    // beta = Cov(L, Z) / Var(Z); estimator L - beta (Z - E[Z]).
    const double n = static_cast<double>(stats.count());
    const double mean_z = sum_z / n;
    const double var_z = std::max(0.0, sum_zz / n - mean_z * mean_z);
    const double cov_lz = sum_lz / n - stats.mean() * mean_z;
    const double beta = var_z > 0.0 ? cov_lz / var_z : 0.0;
    const double ez = control_variate_mean(ctx);
    result.mean = stats.mean() - beta * (mean_z - ez);
    // Var of the adjusted estimator: Var(L) - Cov^2/Var(Z) (asymptotic).
    const double var_plain = stats.variance();
    const double var_cv =
        std::max(0.0, var_plain - (var_z > 0.0 ? cov_lz * cov_lz / var_z : 0.0) *
                                      n / std::max(1.0, n - 1.0));
    result.variance = var_cv;
    result.std_error = std::sqrt(var_cv / n);
    result.variance_reduction =
        var_cv > 0.0 ? var_plain / var_cv
                     : std::numeric_limits<double>::infinity();
  }

  const double z95 = prob::inverse_normal_cdf(0.975);
  const double z99 = prob::inverse_normal_cdf(0.995);
  result.ci95_half_width = z95 * result.std_error;
  result.ci99_half_width = z99 * result.std_error;
  result.samples = std::move(samples);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace expmk::mc
