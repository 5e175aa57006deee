// perfbench/src/solve.cpp
//
// solve_large: in-process evaluator calls, one query at a time, on two
// compiled scenarios — a tiled fork-join graph of ~10^5 tasks with
// identical chains (the hierarchical memo engages) and an LU instance of
// ~10^4 tasks — at default EvalOptions, plus planned target_rel_err
// queries through an EWMA-disabled planner.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/evaluator.hpp"
#include "exp/hier.hpp"
#include "exp/plan.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace {

namespace ex = expmk;

struct Query {
  int scenario = 0;        // 0 = fork-join 10^5, 1 = LU 10^4
  const char* method = "";  // registry name, or "planned"
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  double target = 0.0;      // planned queries only
};

/// The distinct queries of one cycle, weighted by repetition so that the
/// median falls among the fork-join sp.hier / dodin.hier calls and the
/// tail among the LU Monte Carlo calls; no single class sets every metric.
std::vector<Query> make_cycle(Rng& rng) {
  std::vector<Query> qs;
  auto add = [&](int sc, const char* m, int copies, std::uint64_t trials = 0,
                 double target = 0.0) {
    for (int i = 0; i < copies; ++i) {
      qs.push_back({sc, m, trials, rng.next(), target});
    }
  };
  add(1, "fo", 1);
  add(1, "bounds.upper", 1);
  add(1, "sculli", 1);
  add(1, "corlca", 1);
  add(1, "mc", 2, 2000);
  add(0, "bounds.upper", 2);
  add(0, "sp.hier", 4);
  add(0, "dodin.hier", 4);
  add(0, "fo", 2);
  add(0, "sculli", 2);
  add(0, "corlca", 2);
  add(0, "mc", 1, 200);
  add(0, "planned", 1, 0, 1e-3);
  return qs;
}

struct Answer {
  ex::exp::EvalResult result;
  ex::exp::PlanReport report;  // planned queries only
};

Answer run_query(const Query& q, const ex::scenario::Scenario& sc,
                 const ex::exp::Planner& planner, std::size_t threads,
                 Tracer& tr, std::uint64_t id) {
  const auto& registry = ex::exp::EvaluatorRegistry::builtin();
  ex::exp::EvalOptions o;  // defaults: threads = hardware, etc.
  o.threads = threads;
  o.seed = q.seed;
  if (q.trials > 0) o.mc_trials = q.trials;
  Answer a;
  if (q.target > 0.0) {
    Tracer::Scope s(tr, "exp.plan.run", id);
    ex::exp::PlannedResult p =
        planner.run(sc, {.target_rel_err = q.target}, o);
    a.result = std::move(p.result);
    a.report = std::move(p.report);
    return a;
  }
  const ex::exp::Evaluator* e = registry.find(q.method);
  // One span name per method, as string literals.
  static const std::pair<const char*, const char*> kSpan[] = {
      {"fo", "exp.evaluate.fo"},
      {"bounds.upper", "exp.evaluate.bounds.upper"},
      {"sculli", "exp.evaluate.sculli"},
      {"corlca", "exp.evaluate.corlca"},
      {"sp.hier", "exp.evaluate.sp.hier"},
      {"dodin.hier", "exp.evaluate.dodin.hier"},
      {"mc", "exp.evaluate.mc"}};
  const char* span = "exp.evaluate.other";
  for (const auto& [m, n] : kSpan) {
    if (std::strcmp(m, q.method) == 0) span = n;
  }
  // Only the 10^5-task instance feeds the per-method layer times.
  Tracer off(false);
  Tracer::Scope s(q.scenario == 0 ? tr : off, span, id);
  a.result = e->evaluate(sc, o);
  return a;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Scenarios {
  std::unique_ptr<ex::scenario::Scenario> fork_join, lu;
};

/// Program set-up, once per process: compile both scenarios, then warm
/// the hierarchical memo, the level-parallel pool and the workspaces.
double set_up(const ex::graph::Dag& fj, const ex::graph::Dag& lu,
              double pfail_fj, double pfail_lu, Scenarios& out, Tracer& tr) {
  const auto t0 = Clock::now();
  const auto& registry = ex::exp::EvaluatorRegistry::builtin();
  {
    Tracer::Scope s(tr, "scenario.compile", 0);
    out.fork_join = std::make_unique<ex::scenario::Scenario>(
        ex::scenario::Scenario::calibrated(fj, pfail_fj));
  }
  {
    Tracer::Scope s(tr, "scenario.compile", 1);
    out.lu = std::make_unique<ex::scenario::Scenario>(
        ex::scenario::Scenario::calibrated(lu, pfail_lu));
  }
  (void)ex::exp::plan_features(*out.fork_join);
  (void)registry.find("sp.hier")->evaluate(*out.fork_join);
  (void)registry.find("fo")->evaluate(*out.fork_join);
  (void)registry.find("fo")->evaluate(*out.lu);
  return us_between(t0, Clock::now()) * 1e-6;
}

}  // namespace

Report run_solve_large(const Args& args) {
  Report report;
  Rng rng(args.seed ^ 0x501e1a7eULL);
  // The cells are fixed; the seed draws the Monte Carlo seeds and the
  // order of every cycle.
  const double pfail_fj = 0.005;
  const double pfail_lu = 0.005;
  const std::vector<Query> distinct = make_cycle(rng);

  // Benchmark-side input generation, outside set-up time.
  const ex::graph::Dag fj =
      ex::gen::tiled_fork_join(310, 32, 10, 7, {.lo = 2.0, .hi = 2.0});
  const ex::graph::Dag lu = ex::gen::lu_dag(30);

  // Set-up in this process; more samples come from fresh children during
  // the timed phase.
  Tracer tr(args.trace);
  Tracer off(false);
  Scenarios sc;
  const double own_setup = set_up(fj, lu, pfail_fj, pfail_lu, sc, tr);
  if (args.setup_only) {
    print_setup(own_setup);
    return report;
  }

  // The query stream: the distinct queries in a fresh seeded order per
  // cycle. Enough cycles for any run length; a run stops at --seconds.
  std::vector<std::size_t> stream;
  StreamHash stream_hash;
  for (int cycle = 0; cycle < 400; ++cycle) {
    std::vector<std::size_t> order(distinct.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const std::size_t i : order) {
      const Query& q = distinct[i];
      char buf[160];
      std::snprintf(buf, sizeof buf, "%d %s %llu %llu %g", q.scenario,
                    q.method, static_cast<unsigned long long>(q.trials),
                    static_cast<unsigned long long>(q.seed), q.target);
      stream_hash.add(buf);
      stream.push_back(i);
    }
  }
  std::printf("solve_large: seed %llu, %zu + %zu tasks, pfail %g / %g, "
              "%zu distinct queries, stream hash %s\n",
              static_cast<unsigned long long>(args.seed), fj.task_count(),
              lu.task_count(), pfail_fj, pfail_lu, distinct.size(),
              stream_hash.hex().c_str());

  ex::exp::Planner::Config pc;
  pc.enable_ewma = false;  // planned choices stay a pure function of input
  const ex::exp::Planner planner(pc);
  auto scenario_of = [&](const Query& q) -> const ex::scenario::Scenario& {
    return q.scenario == 0 ? *sc.fork_join : *sc.lu;
  };

  // ---- timed phase(s) ---------------------------------------------------
  struct Phase {
    std::vector<double> latency_us;
    std::vector<std::size_t> which;  // index into distinct
    std::vector<Answer> answers;
    double seconds = 0.0;
    ex::exp::hier::MemoStats memo_before, memo_after;
  };
  // A phase runs whole cycles: it starts on a cycle boundary and finishes
  // the cycle it is in when its time is up, so every run measures the
  // same query mix.
  auto run_phase = [&](double seconds, Tracer& t, std::size_t start,
                       SetupSampler& setups) {
    Phase ph;
    ph.memo_before = ex::exp::hier::memo_stats();
    const auto t0 = Clock::now();
    auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    Clock::duration paused{};
    setups.start();
    for (std::size_t k = start;
         k < stream.size() && (Clock::now() < end || k % distinct.size() != 0);
         ++k) {
      if (k % distinct.size() == 0) {
        const Clock::duration d = setups.between_cycles();
        paused += d;
        end += d;
      }
      const Query& q = distinct[stream[k]];
      const auto a = Clock::now();
      Answer ans = run_query(q, scenario_of(q), planner, 0, t, k);
      ph.latency_us.push_back(us_between(a, Clock::now()));
      ph.which.push_back(stream[k]);
      ph.answers.push_back(std::move(ans));
    }
    ph.seconds = us_between(t0 + paused, Clock::now()) * 1e-6;
    ph.memo_after = ex::exp::hier::memo_stats();
    return ph;
  };
  // The traced run reports no setup_s and takes no samples.
  SetupSampler setups(args, args.trace ? 0 : 24, args.seconds);
  std::vector<Phase> phases;
  if (args.trace) {
    phases.push_back(run_phase(args.seconds / 2, off, 0, setups));
    phases.push_back(
        run_phase(args.seconds / 2, tr, phases[0].which.size(), setups));
  } else {
    phases.push_back(run_phase(args.seconds, off, 0, setups));
  }
  setups.finish();

  // ---- checks, untimed ----------------------------------------------------
  // Reference: each distinct query once more at threads = 1; every answer
  // must match it bit for bit. Planned answers must also meet their
  // target against the exact sp.hier value on the fork-join instance.
  std::vector<Answer> refs;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    refs.push_back(run_query(distinct[i], scenario_of(distinct[i]), planner,
                             1, off, 0));
  }
  ex::exp::EvalOptions exact_opts;
  exact_opts.sp_max_atoms = 0;
  const ex::exp::EvalResult exact =
      ex::exp::EvaluatorRegistry::builtin().find("sp.hier")->evaluate(
          *sc.fork_join, exact_opts);
  if (!exact.supported) report.wrong("sp.hier exact reference unsupported");

  EndToEnd e;
  std::vector<double> setup_s = setups.samples();
  setup_s.push_back(own_setup);
  e.setup_s = setup_median("solve_large", setup_s);
  e.peak_rss_mb = peak_rss_mb();
  std::uint64_t unsupported = 0, plan_failed = 0;
  for (const Phase& ph : phases) {
    for (std::size_t k = 0; k < ph.answers.size(); ++k) {
      const Query& q = distinct[ph.which[k]];
      const ex::exp::EvalResult& r = ph.answers[k].result;
      const ex::exp::EvalResult& ref = refs[ph.which[k]].result;
      const std::string what = std::string(q.method) + " on " +
                               (q.scenario == 0 ? "fork-join" : "LU");
      if (!r.supported) {
        ++unsupported;
        report.wrong(what + " unsupported: " + r.note);
        continue;
      }
      if (!same_bits(r.mean, ref.mean) || !same_bits(r.mean_lo, ref.mean_lo) ||
          !same_bits(r.mean_hi, ref.mean_hi) ||
          !same_bits(r.std_error, ref.std_error)) {
        report.wrong(what + " differs from its threads=1 reference");
        continue;
      }
      if (!(r.mean_lo <= r.mean && r.mean <= r.mean_hi)) {
        report.wrong(what + ": mean outside [mean_lo, mean_hi]");
        continue;
      }
      if (q.target > 0.0 && q.scenario == 0) {
        const double err = std::abs(r.mean - exact.mean) / exact.mean;
        if (!(err <= q.target)) {
          ++plan_failed;
          report.wrong(what + ": delivered error above the target");
          continue;
        }
      }
      // Only the first phase is the untraced end-to-end measurement.
      if (&ph == &phases.front()) ++e.verified, ++e.as_requested;
    }
  }
  const Phase& first = phases.front();
  e.latency_us = first.latency_us;
  e.attempted = first.answers.size();
  e.timed_seconds = first.seconds;

  if (!args.trace) {
    report_end_to_end("solve_large", e, report);
    return report;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  report.attempted = e.attempted;
  report.failed = e.attempted - e.verified;
  const Phase& traced = phases.back();
  const auto& registry = ex::exp::EvaluatorRegistry::builtin();
  // fo at threads = 1 against the default (level-parallel) fo above.
  {
    ex::exp::EvalOptions o;
    o.threads = 1;
    for (int i = 0; i < 20; ++i) {
      Tracer::Scope s(tr, "exp.evaluate.fo_threads1", 0);
      (void)registry.find("fo")->evaluate(*sc.fork_join, o);
    }
  }
  // Planner::select alone, on the fork-join features.
  {
    const ex::exp::CostFeatures f = ex::exp::plan_features(*sc.fork_join);
    for (int i = 0; i < 200; ++i) {
      Tracer::Scope s(tr, "exp.plan.select", 0);
      (void)planner.select(f, {.target_rel_err = 1e-3});
    }
  }
  // The planner at a looser target: the ratio of its delivered error to
  // the target (above 1 means the target was missed).
  double loose_ratio = 0.0;
  {
    const ex::exp::PlannedResult p =
        planner.run(*sc.fork_join, {.target_rel_err = 1e-2});
    loose_ratio = std::abs(p.result.mean - exact.mean) / exact.mean / 1e-2;
  }
  double attempts = 0.0, abs_log_err = 0.0, planned = 0.0, log_terms = 0.0;
  double mc_trials = 0.0, mc_seconds = 0.0;
  std::uint64_t mc_failed = 0, hier_failed = 0;
  for (std::size_t k = 0; k < traced.answers.size(); ++k) {
    const Query& q = distinct[traced.which[k]];
    const Answer& a = traced.answers[k];
    if (q.target > 0.0) {
      planned += 1.0;
      attempts += static_cast<double>(a.report.steps.size());
      for (const auto& step : a.report.steps) {
        if (step.predicted_us > 0.0 && step.actual_us > 0.0) {
          abs_log_err += std::abs(std::log(step.actual_us / step.predicted_us));
          log_terms += 1.0;
        }
      }
    }
    if (std::strcmp(q.method, "mc") == 0) {
      if (!a.result.supported) ++mc_failed;
      mc_trials += static_cast<double>(q.trials);
      mc_seconds += a.result.seconds;
    }
    if (std::strstr(q.method, ".hier") != nullptr && !a.result.supported) {
      ++hier_failed;
    }
  }
  const double memo_hits = static_cast<double>(traced.memo_after.hits -
                                               traced.memo_before.hits);
  const double memo_misses = static_cast<double>(traced.memo_after.misses -
                                                 traced.memo_before.misses);
  for (const char* m : {"fo", "bounds.upper", "corlca", "sculli", "sp.hier",
                        "dodin.hier", "mc"}) {
    const std::string span = std::string("exp.evaluate.") + m;
    report.layer(span + "_us", tr.self_us(span), "us");
  }
  report.layer("exp.evaluate.fo_threads1_us",
               tr.self_us("exp.evaluate.fo_threads1"), "us");
  report.layer("exp.evaluate.failed", static_cast<double>(unsupported), "count");
  report.layer("scenario.compile_us", tr.self_us("scenario.compile"), "us");
  report.layer("exp.hier.memo_hit_share",
               memo_hits + memo_misses > 0
                   ? memo_hits / (memo_hits + memo_misses)
                   : 0.0,
               "share");
  report.layer("exp.hier.failed", static_cast<double>(hier_failed), "count");
  report.layer("exp.plan.run_us", tr.self_us("exp.plan.run"), "us");
  report.layer("exp.plan.select_us", tr.self_us("exp.plan.select"), "us");
  report.layer("exp.plan.attempts_mean", planned > 0 ? attempts / planned : 0.0,
               "count");
  report.layer("exp.plan.abs_log_err",
               log_terms > 0 ? abs_log_err / log_terms : 0.0, "ln");
  report.layer("exp.plan.err_over_target_1e-2", loose_ratio, "ratio");
  report.layer("exp.plan.failed", static_cast<double>(plan_failed), "count");
  report.layer("mc.trials_per_s", mc_seconds > 0 ? mc_trials / mc_seconds : 0.0,
               "1/s");
  report.layer("mc.failed", static_cast<double>(mc_failed), "count");
  report.layer("bench.trace_overhead.p50_us",
               median(traced.latency_us) - median(first.latency_us), "us");
  report.layer("bench.trace_overhead.queries_per_s",
               static_cast<double>(traced.answers.size()) / traced.seconds -
                   static_cast<double>(first.answers.size()) / first.seconds,
               "1/s");
  std::printf("solve_large: fo %.0f us at default threads vs %.0f us at "
              "threads=1; planner at target 1e-2 delivered %.2fx the target\n",
              tr.self_us("exp.evaluate.fo"),
              tr.self_us("exp.evaluate.fo_threads1"), loose_ratio);
  if (!args.spans_out.empty()) tr.write(args.spans_out);
  return report;
}

}  // namespace perfbench
