#include "core/verified.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/levels.hpp"

namespace expmk::core {

std::vector<double> VerificationCosts::resolve(const graph::Dag& g) const {
  if (!per_task.empty()) {
    if (per_task.size() != g.task_count()) {
      throw std::invalid_argument(
          "VerificationCosts: per_task size mismatch");
    }
    for (const double v : per_task) {
      if (v < 0.0) {
        throw std::invalid_argument("VerificationCosts: negative cost");
      }
    }
    return per_task;
  }
  if (relative_cost < 0.0) {
    throw std::invalid_argument("VerificationCosts: negative relative cost");
  }
  std::vector<double> out(g.task_count());
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    out[i] = relative_cost * g.weight(i);
  }
  return out;
}

FirstOrderResult first_order_verified(const scenario::Scenario& sc,
                                      const VerificationCosts& costs) {
  const graph::Dag& g = sc.dag();
  const auto v = costs.resolve(g);
  std::vector<double> w(g.task_count());
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    w[i] = g.weight(i) + v[i];
  }
  const auto levels = graph::compute_levels(g, w, sc.topo());

  FirstOrderResult out;
  out.critical_path = levels.critical_path;
  const bool het = sc.heterogeneous();
  const std::span<const double> rates = sc.rates();
  double correction = 0.0;
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    // Failure probability stems from the compute part a_i only; a failure
    // repeats the full w_i = a_i + v_i.
    const double through_doubled = levels.top[i] + levels.bottom[i] + w[i];
    const double delta =
        std::max(0.0, through_doubled - levels.critical_path);
    // Failure mass lambda_i a_i: uniform scenarios sum a_i * delta and
    // scale by lambda once, heterogeneous ones fold each task's own rate.
    correction += het ? rates[i] * g.weight(i) * delta : g.weight(i) * delta;
  }
  out.correction =
      het ? correction : sc.uniform_model().lambda * correction;
  return out;
}

}  // namespace expmk::core
