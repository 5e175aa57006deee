// perfbench/src/sweep.cpp
//
// sweep_paper: exp::SweepRunner::run over slices of the paper's
// LU / QR / Cholesky figure grid (k in {4..12} x pfail in {1e-2, 1e-3,
// 1e-4}) with the analytic methods and a fixed-trial Monte Carlo
// reference. Many small scenarios: DAG build and compile per cell, the
// sweep's per-call thread pool and small kernels dominate.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/evaluator.hpp"
#include "exp/sweep.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace {

namespace ex = expmk;

// Scenario-level workers: half of nproc, so that a stalled vCPU on the
// shared host delays one worker of a slice rather than the slice's last.
constexpr std::size_t kSweepThreads = 2;

const std::vector<std::string> kMethods = {
    "fo", "so", "sculli", "corlca", "bounds.lower", "bounds.upper"};

ex::exp::SweepGrid slice(const std::string& generator, int k_lo,
                         double pfail_a, double pfail_b,
                         std::uint64_t base_seed) {
  ex::exp::SweepGrid g;
  g.generators = {generator};
  g.sizes = {k_lo, k_lo + 2};
  g.pfails = {pfail_a, pfail_b};
  g.methods = kMethods;
  g.reference = "mc";
  g.base_seed = base_seed;
  g.options.mc_trials = 4000;
  g.options.threads = 1;  // parallelism comes from the scenario workers
  return g;
}

}  // namespace

Report run_sweep_paper(const Args& args) {
  Report report;
  Rng rng(args.seed ^ 0x5aeeb9a9e7ULL);
  const char* gens[] = {"lu", "qr", "cholesky"};
  const double pfails[] = {1e-2, 1e-3, 1e-4};
  // The distinct slices: generator x adjacent k pair x pfail pair.
  std::vector<ex::exp::SweepGrid> distinct;
  for (const char* gen : gens) {
    for (const int k : {4, 6, 8, 10}) {
      for (int a = 0; a < 3; ++a) {
        distinct.push_back(slice(gen, k, pfails[a], pfails[(a + 1) % 3],
                                 rng.next() % 100000));
      }
    }
  }
  std::vector<std::size_t> stream;
  StreamHash stream_hash;
  for (int cycle = 0; cycle < 200; ++cycle) {
    std::vector<std::size_t> order(distinct.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const std::size_t i : order) {
      const ex::exp::SweepGrid& g = distinct[i];
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %d %g %g %llu",
                    g.generators[0].c_str(), g.sizes[0], g.pfails[0],
                    g.pfails[1], static_cast<unsigned long long>(g.base_seed));
      stream_hash.add(buf);
      stream.push_back(i);
    }
  }
  std::printf("sweep_paper: seed %llu, %zu distinct slices of %zu cells, "
              "stream hash %s\n",
              static_cast<unsigned long long>(args.seed), distinct.size(),
              static_cast<std::size_t>(4 * (kMethods.size() + 1)),
              stream_hash.hex().c_str());

  // Set-up: the program's first sweep in a process (registry, first
  // pools, first-touch memory), one slice per family on a fixed grid. In
  // this process; more samples come from fresh children during the timed
  // phase.
  const ex::exp::SweepRunner runner;
  const auto setup_start = Clock::now();
  for (const char* gen : gens) {
    (void)runner.run(slice(gen, 10, 1e-2, 1e-3, 7), kSweepThreads);
  }
  const double own_setup = us_between(setup_start, Clock::now()) * 1e-6;
  if (args.setup_only) {
    print_setup(own_setup);
    return report;
  }

  struct Phase {
    std::vector<double> latency_us;
    std::vector<std::size_t> which;
    std::vector<ex::exp::SweepResult> results;
    double seconds = 0.0;
  };
  // A phase runs whole cycles (see solve.cpp), so every run measures the
  // same mix of slices.
  auto run_phase = [&](double seconds, Tracer& t, std::size_t start,
                       SetupSampler& setups) {
    Phase ph;
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
      const auto a = Clock::now();
      ex::exp::SweepResult r;
      {
        Tracer::Scope s(t, "exp.sweep.run", k);
        r = runner.run(distinct[stream[k]], kSweepThreads);
      }
      ph.latency_us.push_back(us_between(a, Clock::now()));
      ph.which.push_back(stream[k]);
      ph.results.push_back(std::move(r));
    }
    ph.seconds = us_between(t0 + paused, Clock::now()) * 1e-6;
    return ph;
  };
  Tracer tr(args.trace);
  Tracer off(false);
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

  // ---- checks, untimed: each artifact must be byte-identical to the
  // same slice swept on one thread; every cell supported, its mean inside
  // its certified envelope.
  std::vector<std::string> refs(distinct.size());
  std::vector<bool> have_ref(distinct.size(), false);
  EndToEnd e;
  std::uint64_t failed_cells = 0;
  for (const Phase& ph : phases) {
    for (std::size_t k = 0; k < ph.results.size(); ++k) {
      const std::size_t i = ph.which[k];
      if (!have_ref[i]) {
        refs[i] = runner.run(distinct[i], 1).json(false);
        have_ref[i] = true;
      }
      bool ok = ph.results[k].json(false) == refs[i];
      if (!ok) report.wrong("sweep artifact differs from the 1-thread sweep");
      for (const ex::exp::SweepCell& c : ph.results[k].cells) {
        const ex::exp::EvalResult& r = c.result;
        if (!r.supported || !(r.mean_lo <= r.mean && r.mean <= r.mean_hi)) {
          ++failed_cells;
          if (ok) report.wrong(c.generator + " " + c.method + " cell failed");
          ok = false;
        }
      }
      if (ok && &ph == &phases.front()) ++e.verified, ++e.as_requested;
    }
  }
  const Phase& first = phases.front();
  std::vector<double> setup_s = setups.samples();
  setup_s.push_back(own_setup);
  e.setup_s = setup_median("sweep_paper", setup_s);
  e.latency_us = first.latency_us;
  e.attempted = first.results.size();
  e.timed_seconds = first.seconds;
  e.peak_rss_mb = peak_rss_mb();
  if (!args.trace) {
    report_end_to_end("sweep_paper", e, report);
    return report;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  report.attempted = e.attempted;
  report.failed = e.attempted - e.verified;
  const Phase& traced = phases.back();
  double cell_seconds = 0.0, cells = 0.0, mc_trials = 0.0, mc_seconds = 0.0;
  for (const ex::exp::SweepResult& r : traced.results) {
    for (const ex::exp::SweepCell& c : r.cells) {
      cell_seconds += c.result.seconds;
      cells += 1.0;
      if (c.method == "mc") {
        mc_trials += static_cast<double>(r.mc_trials);
        mc_seconds += c.result.seconds;
      }
    }
  }
  // What one cell costs outside its kernel: build the DAG and compile it,
  // through the same public calls the sweep makes, once per distinct
  // slice scenario.
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    const ex::exp::SweepGrid& g = distinct[i];
    for (const int size : g.sizes) {
      for (const double pfail : g.pfails) {
        ex::graph::Dag dag;
        {
          Tracer::Scope s(tr, "exp.sweep.build_dag", i);
          dag = ex::exp::SweepRunner::build_dag(g.generators[0], size,
                                                g.base_seed);
        }
        Tracer::Scope s(tr, "scenario.compile", i);
        (void)ex::scenario::Scenario::calibrated(dag, pfail, g.retry);
      }
    }
  }
  const double run_us = tr.self_total_us("exp.sweep.run");
  report.layer("exp.sweep.cell_us", cells > 0 ? cell_seconds * 1e6 / cells : 0.0,
               "us");
  report.layer("exp.sweep.cells_per_s", run_us > 0 ? cells / (run_us * 1e-6) : 0.0,
               "1/s");
  report.layer("exp.sweep.build_dag_us", tr.self_us("exp.sweep.build_dag"), "us");
  report.layer("exp.sweep.failed", static_cast<double>(failed_cells), "count");
  report.layer("scenario.compile_us", tr.self_us("scenario.compile"), "us");
  report.layer("mc.trials_per_s", mc_seconds > 0 ? mc_trials / mc_seconds : 0.0,
               "1/s");
  report.layer("bench.trace_overhead.p50_us",
               median(traced.latency_us) - median(first.latency_us), "us");
  report.layer("bench.trace_overhead.queries_per_s",
               static_cast<double>(traced.results.size()) / traced.seconds -
                   static_cast<double>(first.results.size()) / first.seconds,
               "1/s");
  if (!args.spans_out.empty()) tr.write(args.spans_out);
  return report;
}

}  // namespace perfbench
