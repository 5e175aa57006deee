#include "mc/trial.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace expmk::mc {

TrialContext::TrialContext(const scenario::Scenario& sc)
    : dag_(&sc.dag()),
      csr_(&sc.csr()),
      p_success_(sc.p_success()),
      p_success_csr_(sc.p_success_csr()),
      q_fail_csr_(sc.q_fail_csr()),
      inv_log_q_csr_(sc.inv_log_q_csr()),
      retry_(sc.retry()) {}

namespace {

/// Geometric slow path: at least one failure occurred (u <= 1 - p).
/// Inversion: failures F with P(F >= k) = (1-p)^k, F = floor(ln U / ln(1-p))
/// = floor(ln U * inv_log_q), capped. Clamp BEFORE the int cast: at extreme
/// lambda the inversion yields doubles far beyond int range and the cast
/// would be undefined behaviour.
EXPMK_NOALLOC inline int geometric_executions_slow(double u, double inv_log_q,
                                     int max_executions) {
  const double f = std::floor(std::log(u) * inv_log_q);
  if (!(f < static_cast<double>(max_executions))) {
    return max_executions;
  }
  const int failures = f < 0.0 ? 0 : static_cast<int>(f);
  const int executions = failures + 1;
  return executions < max_executions ? executions : max_executions;
}

/// Fused sample-and-longest-path sweep over the CSR view. One RNG draw per
/// task in position order; finish[] written strictly left to right. When
/// `durations_out` is non-null, per-task durations are written either
/// scattered into Dag id order through csr.order() (kDagOrderOut, the
/// adapter-facing form) or directly in position order (the form the CSR
/// level kernels consume). The duration is computed as a separate
/// statement from the finish update so the plain and scattering variants
/// perform bit-identical arithmetic.
template <bool kWithControl, bool kDagOrderOut = true>
EXPMK_NOALLOC inline TrialObservation trial_sweep(const TrialContext& ctx,
                                    prob::McRng& rng,
                                    std::span<double> finish,
                                    double* durations_out) {
  const graph::CsrDag& csr = ctx.csr();
  const std::size_t n = csr.task_count();
  assert(finish.size() == n);
  const std::span<const std::uint32_t> off = csr.pred_offsets();
  const std::span<const std::uint32_t> pred = csr.pred_index();
  const std::span<const graph::TaskId> order = csr.order();
  const double* const w = csr.weights().data();
  const double* const p = ctx.p_success_csr().data();
  const double* const qf = ctx.q_fail_csr().data();
  const double* const inv_log_q = ctx.inv_log_q_csr().data();
  const bool two_state = ctx.retry() == core::RetryModel::TwoState;

  double best = 0.0;
  double control = 0.0;
  for (std::uint32_t v = 0; v < n; ++v) {
    int executions = 1;
    if (two_state) {
      executions = rng.uniform() < p[v] ? 1 : 2;
    } else {
      const double u = rng.uniform_positive();
      if (u <= qf[v]) {
        executions = geometric_executions_slow(u, inv_log_q[v],
                                               ctx.max_executions);
      }
    }
    const double duration = w[v] * static_cast<double>(executions);
    if constexpr (kWithControl) {
      control += w[v] * static_cast<double>(executions - 1);
    }
    if (durations_out != nullptr) {
      durations_out[kDagOrderOut ? order[v] : v] = duration;
    }

    double start = 0.0;
    for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
      const double f = finish[pred[e]];
      if (f > start) start = f;
    }
    const double fv = start + duration;
    finish[v] = fv;
    if (fv > best) best = fv;
  }
  return {best, control};
}

/// Per-thread finish scratch backing the Dag-facing adapters, so the old
/// signatures stay allocation-free per call after warm-up.
std::span<double> adapter_scratch(std::size_t n) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return {scratch.data(), n};
}

/// The adapters used to resize `durations` every call; now the buffer must
/// be sized once outside the trial loop. Enforced in Release too — an
/// undersized buffer would otherwise be an out-of-bounds scatter.
void check_durations(const TrialContext& ctx,
                     const std::vector<double>& durations) {
  if (durations.size() != ctx.dag().task_count()) {
    throw std::invalid_argument(
        "run_trial: durations must be pre-sized to task_count(); size the "
        "buffer once, outside the trial loop");
  }
}

/// Same Release-mode enforcement for the public CSR kernels (one branch
/// per trial, consistent with the graph:: CSR kernels' check_scratch).
EXPMK_NOALLOC void check_finish(const TrialContext& ctx, std::span<const double> finish) {
  if (finish.size() != ctx.csr().task_count()) {
    throw std::invalid_argument(
        "run_trial_csr: finish scratch must have size task_count()");
  }
}

}  // namespace

EXPMK_NOALLOC double run_trial_csr(const TrialContext& ctx, prob::McRng& rng,
                     std::span<double> finish) {
  check_finish(ctx, finish);
  return trial_sweep<false>(ctx, rng, finish, nullptr).makespan;
}

EXPMK_NOALLOC TrialObservation run_trial_with_control_csr(const TrialContext& ctx,
                                            prob::McRng& rng,
                                            std::span<double> finish) {
  check_finish(ctx, finish);
  return trial_sweep<true>(ctx, rng, finish, nullptr);
}

EXPMK_NOALLOC double run_trial_scatter_csr(const TrialContext& ctx, prob::McRng& rng,
                             std::span<double> finish,
                             std::span<double> durations) {
  check_finish(ctx, finish);
  if (durations.size() != ctx.dag().task_count()) {
    throw std::invalid_argument(
        "run_trial_scatter_csr: durations must have size task_count()");
  }
  return trial_sweep<false>(ctx, rng, finish, durations.data()).makespan;
}

EXPMK_NOALLOC double run_trial_durations_csr(const TrialContext& ctx,
                               prob::McRng& rng,
                               std::span<double> finish,
                               std::span<double> durations_pos) {
  check_finish(ctx, finish);
  if (durations_pos.size() != ctx.csr().task_count()) {
    throw std::invalid_argument(
        "run_trial_durations_csr: durations must have size task_count()");
  }
  return trial_sweep<false, /*kDagOrderOut=*/false>(ctx, rng, finish,
                                                    durations_pos.data())
      .makespan;
}

double run_trial(const TrialContext& ctx, prob::McRng& rng,
                 std::vector<double>& durations) {
  check_durations(ctx, durations);
  return trial_sweep<false>(ctx, rng, adapter_scratch(durations.size()),
                            durations.data())
      .makespan;
}

TrialObservation run_trial_with_control(const TrialContext& ctx,
                                        prob::McRng& rng,
                                        std::vector<double>& durations) {
  check_durations(ctx, durations);
  return trial_sweep<true>(ctx, rng, adapter_scratch(durations.size()),
                           durations.data());
}

double control_variate_mean(const TrialContext& ctx) {
  const graph::Dag& g = ctx.dag();
  const std::span<const double> p_success = ctx.p_success();
  double mean = 0.0;
  for (std::size_t i = 0; i < g.task_count(); ++i) {
    const double a = g.weights()[i];
    const double p = p_success[i];
    if (p >= 1.0) continue;
    if (ctx.retry() == core::RetryModel::TwoState) {
      mean += a * (1.0 - p);
    } else {
      // E[executions - 1] for the capped geometric: the cap's truncation
      // error is (1-p)^{cap}, negligible, but we account for it exactly:
      // E[min(F, cap)] = sum_{k=1..cap} P(F >= k) = sum (1-p)^k.
      const double q = 1.0 - p;
      double qk = q;
      double e = 0.0;
      for (int k = 1; k < ctx.max_executions; ++k) {
        e += qk;
        qk *= q;
      }
      mean += a * e;
    }
  }
  return mean;
}

}  // namespace expmk::mc
