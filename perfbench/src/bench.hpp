// perfbench/src/bench.hpp
//
// Shared pieces of the repository benchmark driver: the clock, the seeded
// input generator, stream hashing, latency statistics, the span tracer and
// the report that main() prints as the final JSON line.
//
// Everything here lives on the benchmark side. The program under test is
// only ever reached through its public headers (src/) or, for the serving
// workloads, through the shipped expmk_serve binary over loopback TCP.

#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Sleeps until shortly before `t`, then spins: an open-loop sender that
/// wakes from a plain sleep runs ~0.1 ms late, and that lateness would
/// count in every latency.
void wait_until(Clock::time_point t);

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the expmk_serve binary
  std::string spans_out;  ///< where a traced run writes its spans
  /// Set up once, print the set-up time (print_setup) and stop: the
  /// child-process mode behind fresh_setups.
  bool setup_only = false;
};

/// A child process; its stdout is the read end `out_fd`.
struct Child {
  pid_t pid = -1;
  int out_fd = -1;
};

/// Starts argv[0] with these arguments and its stdout on a pipe; throws
/// when it cannot. The caller reaps it and closes `out_fd`.
[[nodiscard]] Child spawn_piped(std::vector<std::string> argv);

/// Prints the set-up samples of a run and returns their median.
double setup_median(const std::string& workload,
                    const std::vector<double>& samples);

/// Prints the line a --setup-only run ends with.
void print_setup(double seconds);

/// Set-up samples from fresh processes, spread over a timed phase.
///
/// Program set-up that a process pays once (pools, registries, memos,
/// first-touch memory) is only measured in a fresh process, so each sample
/// runs this driver again with --setup-only, waits for it and reads the
/// time it printed. Host speed drifts over seconds, so the samples are
/// taken between query cycles across the whole phase rather than in one
/// burst; the phase's clock stops while a child runs.
class SetupSampler {
 public:
  /// `n` samples over a phase of `seconds`.
  SetupSampler(const Args& args, int n, double seconds);
  /// Starts the phase clock.
  void start();
  /// Call between two query cycles: runs one child when the next sample
  /// is due. Returns the time it took (zero when none was due).
  Clock::duration between_cycles();
  /// Takes the samples the phase ended too early for.
  void finish();
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  const Args& args_;
  int n_;
  Clock::duration interval_;
  Clock::time_point start_;
  Clock::duration paused_{};
  std::vector<double> samples_;
};

/// The benchmark's own seeded generator (SplitMix64): inputs are a pure
/// function of --seed, independent of the library's RNG code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over a sequence of byte strings: the printed stream hash that
/// lets two runs show "same seed => same bytes".
class StreamHash {
 public:
  void add(std::string_view bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A percentile that still has at least ten samples beyond it.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly above the rank
  std::size_t samples = 0;
};

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// The highest of {99.9, 99, 95, 90, 75, 50} whose nearest rank leaves at
/// least ten samples beyond it.
[[nodiscard]] Tail tail(std::vector<double> values);

/// Peak resident set (VmHWM) of a process, in MB; pid 0 = this process.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the end-to-end block (printed with --trace 0)
/// and the per-layer block (printed with --trace 1).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value,
             const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records a wrong answer: the run fails and the answer counts as
  /// missing. Prints the reason (first few only) to stderr.
  void wrong(const std::string& why);

 private:
  std::size_t wrong_printed_ = 0;
};

/// The seven end-to-end metrics, same names on every workload.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> latency_us;  ///< one per attempted query, in order
  double timed_seconds = 0.0;      ///< wall time of the timed phase
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;      ///< answered and checked correct
  std::uint64_t as_requested = 0;  ///< verified and not shed-degraded
  double peak_rss_mb = 0.0;
};

/// Appends the seven end-to-end metrics to `report` and prints the tail
/// percentile with its sample count.
void report_end_to_end(const std::string& workload, const EndToEnd& e,
                       Report& report);

// ------------------------------------------------------------------ tracing

/// Spans around the benchmark's calls into each layer. Kept in memory and
/// written out when the run ends. Thread-safe; each thread keeps its own
/// stack of open spans, so a span opened inside another on the same
/// thread records it as its parent.
class Tracer {
 public:
  struct Span {
    std::string_view name;  ///< must be a string literal
    double start_us = 0.0;  ///< since the tracer was created
    double end_us = 0.0;
    std::int64_t parent = -1;
    std::uint64_t query = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, std::uint64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int64_t index_ = -1;
  };

  /// Records a finished span with explicit times (no parent).
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end, std::uint64_t query);

  /// Mean self time (duration minus the time its child spans cover) of
  /// spans with this name, in microseconds; 0 when there are none.
  [[nodiscard]] double self_us(std::string_view name) const;
  /// Sum of self time over spans with this name.
  [[nodiscard]] double self_total_us(std::string_view name) const;
  [[nodiscard]] std::size_t count(std::string_view name) const;

  /// Writes one JSON object per span (name, start_us, end_us, self_us,
  /// parent, query) to `path`.
  void write(const std::string& path) const;

 private:
  std::int64_t open(std::string_view name, std::uint64_t query);
  void close(std::int64_t index);
  void compute_self() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex m_;
  std::vector<Span> spans_;
  mutable std::vector<double> self_;  // filled lazily by compute_self
  mutable std::size_t self_valid_ = 0;
};

// ---------------------------------------------------------------- workloads

Report run_serve_churn(const Args& args);
Report run_solve_large(const Args& args);
Report run_sweep_paper(const Args& args);

}  // namespace perfbench
