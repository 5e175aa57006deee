#include "bench.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

extern char** environ;

namespace perfbench {

void StreamHash::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  // Separator so that ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 0x100000001b3ULL;
}

std::string StreamHash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

void wait_until(Clock::time_point t) {
  std::this_thread::sleep_until(t - std::chrono::microseconds(200));
  while (Clock::now() < t) {
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the ceil(p/100 * n)-th smallest sample.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
    const std::size_t beyond = n - (idx + 1);
    if (beyond >= 10 || p == 50.0) {
      t.percentile = p;
      t.value = values[idx];
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double setup_median(const std::string& workload,
                    const std::vector<double>& samples) {
  std::printf("%s: set-up samples (s):", workload.c_str());
  for (const double s : samples) std::printf(" %.4f", s);
  std::printf("\n");
  return median(samples);
}

void print_setup(double seconds) { std::printf("setup_s %.17g\n", seconds); }

Child spawn_piped(std::vector<std::string> argv_s) {
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  Child c;
  const int rc = ::posix_spawn(&c.pid, argv[0], &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (rc != 0) {
    ::close(out[0]);
    throw std::runtime_error("cannot start " + argv_s[0] + ": " +
                             std::strerror(rc));
  }
  c.out_fd = out[0];
  return c;
}

namespace {

/// Runs this driver again in --setup-only mode and returns the set-up
/// time it printed. Kills and reaps a child that runs past 60 s.
double setup_in_child(const Args& args) {
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("cannot find the driver binary");
  self[len] = '\0';
  const Child child = spawn_piped(
      {self, "--workload", args.workload, "--seed", std::to_string(args.seed),
       "--seconds", std::to_string(args.seconds), "--trace", "0",
       "--serve-bin", args.serve_bin, "--setup-only", "1"});
  std::string text;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  bool timed_out = false;
  for (;;) {
    if (Clock::now() > deadline) {
      timed_out = true;
      break;
    }
    pollfd p{child.out_fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(child.out_fd, buf, sizeof buf);
    if (n <= 0) break;  // EOF: the child is done
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(child.out_fd);
  if (timed_out) ::kill(child.pid, SIGKILL);
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  const std::size_t at = text.rfind("setup_s ");
  if (timed_out || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      at == std::string::npos) {
    throw std::runtime_error("a set-up child failed");
  }
  return std::strtod(text.c_str() + at + 8, nullptr);
}

}  // namespace

SetupSampler::SetupSampler(const Args& args, int n, double seconds)
    : args_(args),
      n_(n),
      interval_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds / std::max(n, 1)))) {}

void SetupSampler::start() { start_ = Clock::now(); }

Clock::duration SetupSampler::between_cycles() {
  const auto now = Clock::now();
  const auto taken = static_cast<int>(samples_.size());
  // Sample i is due half an interval into the i-th slice of phase time.
  if (taken >= n_ || now - start_ - paused_ < interval_ * taken + interval_ / 2) {
    return Clock::duration::zero();
  }
  samples_.push_back(setup_in_child(args_));
  const auto took = Clock::now() - now;
  paused_ += took;
  return took;
}

void SetupSampler::finish() {
  while (static_cast<int>(samples_.size()) < n_) {
    samples_.push_back(setup_in_child(args_));
  }
}

void Report::wrong(const std::string& why) {
  correct = false;
  if (wrong_printed_++ < 5) std::fprintf(stderr, "wrong answer: %s\n", why.c_str());
}

void report_end_to_end(const std::string& workload, const EndToEnd& e,
                       Report& report) {
  const Tail t = tail(e.latency_us);
  std::printf("%s: tail_us is p%g = %.1f us (%zu samples, %zu beyond)\n",
              workload.c_str(), t.percentile, t.value, t.samples, t.beyond);
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(e.attempted, 1));
  report.attempted = e.attempted;
  report.failed = e.attempted - e.verified;
  report.e2e("setup_s", e.setup_s, "s");
  report.e2e("p50_us", median(e.latency_us), "us");
  report.e2e("tail_us", t.value, "us");
  report.e2e("queries_per_s", static_cast<double>(e.verified) / e.timed_seconds,
             "1/s");
  report.e2e("peak_rss_mb", e.peak_rss_mb, "MB");
  report.e2e("answered_share", static_cast<double>(e.verified) / attempted,
             "share");
  report.e2e("as_requested_share",
             static_cast<double>(e.as_requested) / attempted, "share");
}

// ------------------------------------------------------------------ Tracer

namespace {
thread_local std::vector<std::int64_t> t_open_spans;
}  // namespace

Tracer::Scope::Scope(Tracer& t, std::string_view name, std::uint64_t query)
    : t_(t) {
  if (t_.enabled_) index_ = t_.open(name, query);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) t_.close(index_);
}

std::int64_t Tracer::open(std::string_view name, std::uint64_t query) {
  Span s;
  s.name = name;
  s.query = query;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  const std::lock_guard<std::mutex> lock(m_);
  s.start_us = us_between(origin_, Clock::now());
  spans_.push_back(s);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const double end = us_between(origin_, Clock::now());
  t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(m_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

void Tracer::record(std::string_view name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t query) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.query = query;
  s.start_us = us_between(origin_, start);
  s.end_us = us_between(origin_, end);
  const std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(s);
}

void Tracer::compute_self() const {
  const std::lock_guard<std::mutex> lock(m_);
  if (self_valid_ == spans_.size() && self_.size() == spans_.size()) return;
  self_.assign(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self_[i] += spans_[i].end_us - spans_[i].start_us;
    if (spans_[i].parent >= 0) {
      self_[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_us - spans_[i].start_us;
    }
  }
  self_valid_ = spans_.size();
}

double Tracer::self_total_us(std::string_view name) const {
  compute_self();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self_[i];
  }
  return total;
}

std::size_t Tracer::count(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(m_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

double Tracer::self_us(std::string_view name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0.0 : self_total_us(name) / static_cast<double>(n);
}

void Tracer::write(const std::string& path) const {
  compute_self();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%.*s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f, \"parent\": %" PRId64
                 ", \"query\": %" PRIu64 "}\n",
                 static_cast<int>(s.name.size()), s.name.data(), s.start_us,
                 s.end_us, self_[i], s.parent, s.query);
  }
  std::fclose(f);
}

}  // namespace perfbench
