// perfbench/src/main.cpp
//
// One benchmark run:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --serve-bin <path> [--spans <path>]
//                    [--setup-only 1]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exit code 0
// when every answer checked correct, 1 when one did not, 2 when the run
// could not be made or was invalid (then no result line is printed).
// With --setup-only 1 (solve_large and sweep_paper) the driver only sets
// the program up once and prints "setup_s <seconds>": the runs above
// start such children to time set-up in fresh processes.
// Run from the directory that holds BENCHMARK.json: a traced run prints
// the per-layer metrics it lists.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric (name, unit) in print order, as BENCHMARK.json in
/// the working directory lists them. A workload reports the ones its
/// layers reach; the rest print as 0 (that layer does no work there).
std::vector<std::pair<std::string, std::string>> per_layer_list() {
  std::ifstream f("BENCHMARK.json");
  if (!f) throw std::runtime_error("BENCHMARK.json not found");
  std::stringstream text;
  text << f.rdbuf();
  const expmk::util::json::Value root = expmk::util::json::parse(text.str());
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : root.find("per_layer")->as_array()) {
    out.emplace_back(m.find("name")->as_string(), m.find("unit")->as_string());
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<serve_churn|solve_large|sweep_paper> --seed <n> "
               "--seconds <s> --trace <0|1> --serve-bin <path> "
               "[--spans <path>] [--setup-only 1]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (key == "--serve-bin") {
      a.serve_bin = v;
    } else if (key == "--spans") {
      a.spans_out = v;
    } else if (key == "--setup-only") {
      a.setup_only = std::strcmp(v, "0") != 0;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void print_metric(const Metric& m, bool& first) {
  // All digits as measured; JSON has no NaN or infinity.
  const double v = std::isfinite(m.value) ? m.value : 0.0;
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  try {
    if (args.setup_only && args.workload == "serve_churn") {
      usage("serve_churn sets up a fresh daemon per rep; no --setup-only");
    }
    if (args.workload == "serve_churn") {
      report = run_serve_churn(args);
    } else if (args.workload == "solve_large") {
      report = run_solve_large(args);
    } else if (args.workload == "sweep_paper") {
      report = run_sweep_paper(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (args.setup_only) return 0;

  std::vector<Metric> metrics;
  if (args.trace) {
    std::vector<std::pair<std::string, std::string>> listed;
    try {
      listed = per_layer_list();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
      return 2;
    }
    for (const auto& [name, unit] : listed) {
      Metric m{name, 0.0, unit};
      for (const Metric& r : report.per_layer) {
        if (r.name == name) m.value = r.value;
      }
      metrics.push_back(m);
    }
    for (const Metric& r : report.per_layer) {
      bool known = false;
      for (const auto& [name, unit] : listed) known |= r.name == name;
      if (!known) {
        std::fprintf(stderr, "perfbench_driver: unlisted metric %s\n",
                     r.name.c_str());
        return 2;
      }
    }
  } else {
    metrics = report.end_to_end;
  }
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const Metric& m : metrics) print_metric(m, first);
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
