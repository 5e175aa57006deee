// perfbench/src/serve.cpp
//
// serve_churn, driven against the shipped expmk_serve binary over
// loopback TCP from one client connection: inline taskgraph requests from
// a seeded mix of new cells, same-structure pfail changes and repeats,
// with a cache budget below the working set; open loop at a constant rate.
//
// The traced run adds an in-process replay of the same stream through
// the serving layers' public functions (frame decoder, protocol parser,
// taskgraph parser, content hash, scenario cache, shed policy, batching
// executor, response builder) with a span around each call.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/failure_model.hpp"
#include "daemon.hpp"
#include "exp/evaluate_many.hpp"
#include "exp/evaluator.hpp"
#include "exp/plan.hpp"
#include "exp/seeds.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "graph/serialize.hpp"
#include "scenario/content_hash.hpp"
#include "scenario/scenario.hpp"
#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/shed.hpp"
#include "util/framing.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace ex = expmk;
namespace json = expmk::util::json;

// ------------------------------------------------------------- the stream

/// One taskgraph structure: a paper family at a tile count.
struct Structure {
  int family = 0;  // 0 = LU, 1 = QR, 2 = Cholesky
  int k = 0;
  ex::graph::Dag dag;  // as parsed back from `text`
  std::string text;    // expmk-taskgraph bytes, sent inline
};

/// One cell: a structure plus a pfail (the Section V-C calibration).
struct Cell {
  std::size_t structure = 0;
  double pfail = 0.0;
  std::uint64_t hash = 0;  // scenario::content_hash of the cell
};

struct Request {
  std::size_t cell = 0;
  std::string method;
  std::uint64_t trials = 1000;
  std::uint64_t dodin_atoms = 32;
  std::uint64_t seed = 0;
  std::string frame;  // encoded frame of the JSON payload
};

// The fixed load: a constant rate over one connection to a daemon whose
// cache budget is below the working set. Workers plus the one client
// connection stay within nproc (4).
constexpr double kRatePerS = 60.0;
constexpr int kCacheMb = 8;
constexpr int kWorkers = 2;

struct Workload {
  std::vector<Structure> structures;
  std::vector<Cell> cells;
  std::vector<Request> preload;  // sent closed-loop during set-up
  std::vector<Request> timed;    // sent open-loop
  std::vector<double> due_s;     // send time of timed[i] after the start
};

/// Send times at a constant rate. Returns the count, rate x seconds.
std::size_t make_arrivals(Workload& w, double seconds) {
  const auto n = static_cast<std::size_t>(kRatePerS * seconds);
  for (std::size_t i = 0; i < n; ++i) {
    w.due_s.push_back(static_cast<double>(i) / kRatePerS);
  }
  return n;
}

ex::graph::Dag build(int family, int k) {
  switch (family) {
    case 0:
      return ex::gen::lu_dag(k);
    case 1:
      return ex::gen::qr_dag(k);
    default:
      return ex::gen::cholesky_dag(k);
  }
}

std::size_t add_structure(Workload& w, int family, int k) {
  for (std::size_t i = 0; i < w.structures.size(); ++i) {
    if (w.structures[i].family == family && w.structures[i].k == k) return i;
  }
  Structure s;
  s.family = family;
  s.k = k;
  s.text = ex::graph::to_taskgraph(build(family, k));
  // The daemon sees only the text; keep the graph it parses from it, so
  // hashes and in-process re-evaluations start from the same bits.
  s.dag = ex::graph::taskgraph_file_from_string(s.text).dag;
  w.structures.push_back(std::move(s));
  return w.structures.size() - 1;
}

std::size_t add_cell(Workload& w, std::size_t structure, double pfail) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (w.cells[i].structure == structure && w.cells[i].pfail == pfail) {
      return i;
    }
  }
  Cell c;
  c.structure = structure;
  c.pfail = pfail;
  const ex::graph::Dag& dag = w.structures[structure].dag;
  c.hash = ex::scenario::content_hash(dag, ex::core::calibrate(dag, pfail),
                                      ex::core::RetryModel::TwoState);
  w.cells.push_back(c);
  return w.cells.size() - 1;
}

void encode(const Workload& w, std::uint64_t id, Request& r) {
  ex::util::JsonWriter j;
  j.field("v", 1);
  j.field("type", "eval");
  j.field("id", id);
  const Cell& c = w.cells[r.cell];
  j.field("graph", w.structures[c.structure].text);
  j.field("pfail", c.pfail);
  j.field("method", r.method);
  j.field("seed", r.seed);
  j.field("trials", r.trials);
  j.field("dodin_atoms", r.dodin_atoms);
  r.frame = ex::util::encode_frame(j.str());
}

/// `n` category indices with exact shares (largest remainder), in a
/// seeded order: the seed changes the order, never the mix.
std::vector<std::size_t> bag(const std::vector<double>& shares, std::size_t n,
                             Rng& rng) {
  std::vector<std::size_t> out;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t c = 0; c < shares.size(); ++c) {
    const double exact = shares[c] * static_cast<double>(n);
    const auto whole = static_cast<std::size_t>(exact);
    out.insert(out.end(), whole, c);
    remainders.push_back({exact - static_cast<double>(whole), c});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; out.size() < n; ++i) {
    out.push_back(remainders[i % remainders.size()].second);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

/// serve_churn: inline requests over the paper's families at ~200-2,000
/// tasks; repeats of a structure's latest cell, and new pfails on a
/// structure (patched from a cached sibling, or compiled once the
/// structure was evicted). Every structure is asked about equally often
/// and every method has an exact share; the seed sets the order and the
/// pfails, so every seed offers the same work.
Workload make_churn(std::uint64_t seed, double seconds) {
  Workload w;
  Rng rng(seed ^ 0xc4a27ULL);
  // 32 structures: LU and QR at k = 8..17, Cholesky at k = 10..21
  // (204..2,109 tasks); 24 pfails log-spaced over [1e-4, 2e-2].
  for (int k = 8; k <= 17; ++k) add_structure(w, 0, k);
  for (int k = 8; k <= 17; ++k) add_structure(w, 1, k);
  for (int k = 10; k <= 21; ++k) add_structure(w, 2, k);
  std::vector<double> pfails;
  for (int i = 0; i < 24; ++i) {
    pfails.push_back(1e-4 * std::pow(200.0, static_cast<double>(i) / 23.0));
  }
  // A cell not sent before on `structure` (falls back to any pfail).
  std::vector<bool> sent;
  std::vector<std::size_t> latest(w.structures.size(), SIZE_MAX);
  auto fresh_cell = [&](std::size_t structure) {
    std::size_t c = 0;
    for (int attempt = 0; attempt < 32; ++attempt) {
      c = add_cell(w, structure, pfails[rng.below(pfails.size())]);
      sent.resize(w.cells.size(), false);
      if (!sent[c]) break;
    }
    sent[c] = true;
    latest[structure] = c;
    return c;
  };

  // Preload: every other structure, seeded pfails; the same work on every
  // seed, so set-up time does not depend on it.
  for (std::size_t st = 0; st < w.structures.size(); st += 2) {
    Request r;
    r.cell = fresh_cell(st);
    r.method = "fo";
    r.seed = rng.next();
    w.preload.push_back(std::move(r));
  }
  const std::size_t n = make_arrivals(w, seconds);
  const auto structure_of = bag(
      std::vector<double>(w.structures.size(), 1.0 / 32.0), n, rng);
  const auto repeat_of = bag({0.45, 0.55}, n, rng);
  // Methods: heavy mc (~15 ms, sharing batches with light requests), mc,
  // dodin (small cells; sculli otherwise), fo, so, corlca, sculli, bounds.
  const auto method_of =
      bag({0.03, 0.14, 0.08, 0.23, 0.12, 0.14, 0.14, 0.12}, n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    const std::size_t st = structure_of[i];
    r.cell = repeat_of[i] == 0 && latest[st] != SIZE_MAX ? latest[st]
                                                         : fresh_cell(st);
    const std::size_t tasks = w.structures[st].dag.task_count();
    r.trials = 1000;
    switch (method_of[i]) {
      case 0:
        r.method = "mc";
        r.trials = 1'800'000 / tasks;
        break;
      case 1:
        r.method = "mc";
        r.trials = 600'000 / tasks;
        break;
      case 2:
        r.method = tasks <= 300 ? "dodin" : "sculli";
        break;
      case 3:
        r.method = "fo";
        break;
      case 4:
        r.method = "so";
        break;
      case 5:
        r.method = "corlca";
        break;
      case 6:
        r.method = "sculli";
        break;
      default:
        r.method = "bounds.upper";
        break;
    }
    r.seed = rng.next();
    w.timed.push_back(std::move(r));
  }
  return w;
}

void encode_all(Workload& w, StreamHash& hash) {
  std::uint64_t id = 0;
  for (Request& r : w.preload) {
    encode(w, id++, r);
    hash.add(r.frame);
  }
  for (std::size_t i = 0; i < w.timed.size(); ++i) {
    encode(w, id++, w.timed[i]);
    hash.add(w.timed[i].frame);
    hash.add(std::to_string(w.due_s[i]));
  }
}

// ------------------------------------------------------- the daemon phase

struct Received {
  std::string payload;
  Clock::time_point at;
};

struct DaemonPhase {
  std::vector<Clock::time_point> scheduled;
  std::vector<Clock::time_point> sent;
  std::vector<Received> received;
  double timed_seconds = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  json::Value stats_before, stats_after;
  std::vector<std::string> preload_responses;
};

/// Daemon start to ready, plus the cache preload; closed loop.
double set_up(const Workload& w, const std::string& bin,
              std::unique_ptr<Daemon>& daemon,
              std::unique_ptr<Connection>& conn,
              std::vector<std::string>& preload_responses, bool quick_ack) {
  const auto t0 = Clock::now();
  daemon = std::make_unique<Daemon>(
      bin, std::vector<std::string>{
               "--port", "0", "--workers", std::to_string(kWorkers),
               "--cache-mb", std::to_string(kCacheMb)});
  conn = std::make_unique<Connection>(daemon->port(), quick_ack);
  preload_responses.clear();
  for (const Request& r : w.preload) {
    conn->send_all(r.frame);
    std::string response;
    if (!conn->read_frame(response, 60'000)) {
      throw std::runtime_error("preload request got no response");
    }
    preload_responses.push_back(std::move(response));
  }
  return us_between(t0, Clock::now()) * 1e-6;
}

/// Stops the daemon after closing the client's connection.
void stop(std::unique_ptr<Daemon>& daemon, std::unique_ptr<Connection>& conn) {
  conn.reset();
  if (!daemon->stop()) throw std::runtime_error("daemon did not exit cleanly");
  daemon.reset();
}

/// One daemon phase: set up the daemon, send the first `count` timed
/// requests open loop and collect the answers.
///
/// `extra_setups` more set-up samples come from fresh daemons started while
/// the open loop pauses at evenly spaced requests, so that they span the
/// same stretch of host time as the requests (host speed drifts over
/// seconds). A pause first waits for every answer sent for, and is left
/// out of the schedule and of the timed phase.
DaemonPhase run_daemon(const Workload& w, const Args& args, std::size_t count,
                       double& gen_late_us, bool quick_ack, int extra_setups) {
  DaemonPhase p;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Connection> conn;
  std::vector<double> setup_s = {set_up(w, args.serve_bin, daemon, conn,
                                        p.preload_responses, quick_ack)};
  p.stats_before = json::parse(conn->request(R"({"v": 1, "type": "stats"})"));

  // Open loop: request i is due at t0 + due_s[i], whatever happened to
  // the ones before it; its latency counts from that due time.
  p.scheduled.resize(count);
  p.sent.resize(count);
  p.received.reserve(count);
  std::atomic<bool> receiving{true};
  std::atomic<std::size_t> got{0};
  std::thread receiver([&] {
    std::string payload;
    while (p.received.size() < count) {
      if (!conn->read_frame(payload, 100)) {
        if (!receiving.load()) break;
        continue;
      }
      p.received.push_back({std::move(payload), Clock::now()});
      got.store(p.received.size());
    }
  });
  // Joins the receiver on every path out of this scope, throws included.
  struct Joiner {
    std::atomic<bool>& flag;
    std::thread& t;
    ~Joiner() {
      flag.store(false);
      if (t.joinable()) t.join();
    }
  } joiner{receiving, receiver};
  // Waits until the first n answers arrived or `limit` passed.
  auto drain = [&](std::size_t n, std::chrono::seconds limit) {
    const auto give_up = Clock::now() + limit;
    while (got.load() < n && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  Clock::duration paused{};
  int pauses = 0;
  std::vector<double> late;
  late.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (pauses < extra_setups &&
        i == (pauses + 1) * count / (static_cast<std::size_t>(extra_setups) + 1)) {
      const auto pause_start = Clock::now();
      drain(i, std::chrono::seconds(30));
      std::unique_ptr<Daemon> d;
      std::unique_ptr<Connection> c;
      std::vector<std::string> answers;  // p.preload_responses are checked
      setup_s.push_back(set_up(w, args.serve_bin, d, c, answers, quick_ack));
      stop(d, c);
      paused += Clock::now() - pause_start;
      ++pauses;
    }
    p.scheduled[i] = t0 + paused +
                     std::chrono::nanoseconds(
                         static_cast<std::int64_t>(w.due_s[i] * 1e9));
    wait_until(p.scheduled[i]);
    p.sent[i] = Clock::now();
    late.push_back(us_between(p.scheduled[i], p.sent[i]));
    conn->send_all(w.timed[i].frame);
  }
  // Every answer should arrive well within this; missing ones count as
  // failed.
  drain(count, std::chrono::seconds(30));
  receiving.store(false);
  receiver.join();
  p.timed_seconds =
      us_between(t0 + paused,
                 p.received.empty() ? Clock::now() : p.received.back().at) *
      1e-6;
  gen_late_us = mean(late);

  p.peak_rss_mb = peak_rss_mb(daemon->pid());
  p.stats_after = json::parse(conn->request(R"({"v": 1, "type": "stats"})"));
  stop(daemon, conn);
  p.setup_s = setup_median("serve_churn", setup_s);
  return p;
}

// --------------------------------------------------- checking the answers

double num(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_number() ? f->as_double() : 0.0;
}
std::uint64_t u64(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_u64() ? f->as_u64() : 0;
}
std::string str(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_string() ? f->as_string() : std::string();
}
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Checked {
  bool ok = false;
  bool as_requested = false;
  std::string cache;  // hit / miss / patched / coalesced
  double total_us = 0.0;
  std::string why;    // when !ok
};

/// Re-evaluates every answer in-process with the echoed derived seed and
/// compares it bit for bit. Runs after the timed phase, untimed.
std::vector<Checked> check_answers(const Workload& w,
                                   const std::vector<const json::Value*>& by_id,
                                   std::size_t first_id, std::size_t count) {
  const auto& registry = ex::exp::EvaluatorRegistry::builtin();
  // One compiled scenario per cell that was asked about.
  std::map<std::size_t, std::unique_ptr<ex::scenario::Scenario>> scenarios;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t c = w.timed[i].cell;
    if (scenarios.count(c) != 0) continue;
    const Cell& cell = w.cells[c];
    const ex::graph::Dag& dag = w.structures[cell.structure].dag;
    scenarios[c] = std::make_unique<ex::scenario::Scenario>(
        ex::scenario::Scenario::calibrated(dag, cell.pfail));
  }
  std::vector<Checked> out(count);
  ex::util::ThreadPool pool(4);
  pool.parallel_for_chunks(count, [&](std::size_t i) {
    Checked& ch = out[i];
    const json::Value* v = by_id[first_id + i];
    if (v == nullptr) {
      ch.why = "no response";
      return;
    }
    if (str(*v, "type") != "result") {
      ch.why = "error response: " + str(*v, "code") + " " + str(*v, "message");
      return;
    }
    const Request& req = w.timed[i];
    ch.cache = str(*v, "cache");
    ch.total_us = num(*v, "total_us");
    const std::string method = str(*v, "method");
    const std::uint64_t trials = u64(*v, "trials");
    ch.as_requested = method == req.method && trials == req.trials &&
                      u64(*v, "trials_requested") == req.trials &&
                      str(*v, "method_requested") == req.method &&
                      v->find("degraded") != nullptr &&
                      !v->find("degraded")->as_bool();
    if (str(*v, "hash") !=
        ex::scenario::content_hash_hex(w.cells[req.cell].hash)) {
      ch.why = "content hash differs";
      return;
    }
    const json::Value* supported = v->find("supported");
    if (supported == nullptr || !supported->as_bool()) {
      ch.why = "unsupported: " + str(*v, "note");
      return;
    }
    const ex::exp::Evaluator* e = registry.find(method);
    if (e == nullptr) {
      ch.why = "unknown method " + method;
      return;
    }
    ex::exp::EvalOptions o;
    o.threads = 1;
    o.mc_trials = trials;
    o.seed = u64(*v, "derived_seed");
    o.dodin_atoms = req.dodin_atoms;
    const ex::exp::EvalResult ref = e->evaluate(*scenarios.at(req.cell), o);
    const double mean = num(*v, "mean"), lo = num(*v, "mean_lo"),
                 hi = num(*v, "mean_hi");
    if (!same_bits(ref.mean, mean) || !same_bits(ref.mean_lo, lo) ||
        !same_bits(ref.mean_hi, hi) ||
        !same_bits(ref.std_error, num(*v, "std_error")) ||
        ref.censored_trials != u64(*v, "censored_trials")) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: served %.17g, in-process %.17g",
                    method.c_str(), mean, ref.mean);
      ch.why = buf;
      return;
    }
    if (!(lo <= mean && mean <= hi)) {
      ch.why = "mean outside [mean_lo, mean_hi]";
      return;
    }
    ch.ok = true;
  });
  return out;
}

// ------------------------------------------------ the traced in-process replay

struct ReplayResult {
  std::vector<double> latency_us;  // scheduled -> response built
  std::vector<double> kernel_us;   // EvalResult::seconds
  double seconds = 0.0;
  std::uint64_t answered = 0;
  std::uint64_t frame_failed = 0, parse_failed = 0, graph_failed = 0,
                cache_failed = 0, unsupported = 0;
  std::vector<std::pair<std::shared_ptr<const ex::scenario::Scenario>,
                        ex::exp::EvalRequest>>
      evaluated;  // for the direct evaluate_many timing
};

/// Replays the first `count` timed requests in-process, open loop at the
/// workload's rate, through the same public calls the daemon makes.
ReplayResult replay(const Workload& w, std::size_t count, Tracer& tr) {
  ReplayResult out;
  ex::serve::EngineConfig defaults;  // the daemon's defaults
  ex::serve::ScenarioCache cache(static_cast<std::size_t>(kCacheMb) << 20,
                                 defaults.cache_shards);
  const ex::serve::ShedPolicy shed(defaults.shed);
  const ex::exp::Planner planner;
  ex::serve::BatchConfig bc = defaults.batch;
  bc.eval_threads = static_cast<std::size_t>(kWorkers);

  std::mutex m;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t expected = 0;
  out.latency_us.reserve(count);
  std::vector<Clock::time_point> scheduled(count);
  {
    ex::serve::BatchExecutor batcher(bc);
    // Preload, unscheduled, so the cache holds what the daemon's held.
    auto resolve = [&](Tracer& tr, const std::string& frame,
                       std::uint64_t q, ex::serve::WireRequest& req) {
      std::string payload;
      {
        Tracer::Scope s(tr, "util.frame.decode", q);
        ex::util::FrameDecoder dec;
        dec.feed(frame);
        if (dec.next(payload) != ex::util::FrameDecoder::Status::Frame) {
          ++out.frame_failed;
          return std::shared_ptr<const ex::scenario::Scenario>();
        }
      }
      try {
        Tracer::Scope s(tr, "serve.protocol.parse", q);
        req = ex::serve::parse_request(payload);
      } catch (const std::exception&) {
        ++out.parse_failed;
        return std::shared_ptr<const ex::scenario::Scenario>();
      }
      ex::graph::TaskGraphFile file;
      try {
        Tracer::Scope s(tr, "graph.parse", q);
        file = ex::graph::taskgraph_file_from_string(req.graph_text);
      } catch (const std::exception&) {
        ++out.graph_failed;
        return std::shared_ptr<const ex::scenario::Scenario>();
      }
      ex::scenario::FailureSpec spec;
      std::uint64_t hash = 0, skey = 0;
      {
        Tracer::Scope s(tr, "scenario.hash", q);
        spec = ex::scenario::FailureSpec(
            ex::core::calibrate(file.dag, req.pfail));
        hash = ex::scenario::content_hash(file.dag, spec, req.retry);
        skey = ex::scenario::structure_hash(file.dag, req.retry);
      }
      try {
        Tracer::Scope s(tr, "serve.cache.resolve", q);
        return cache.get_or_compile(
            hash, skey,
            [&](const ex::scenario::Scenario& sibling) {
              Tracer::Scope p(tr, "scenario.patch", q);
              return std::make_shared<const ex::scenario::Scenario>(
                  sibling.with_failure(spec));
            },
            [&] {
              Tracer::Scope c(tr, "scenario.compile", q);
              return std::make_shared<const ex::scenario::Scenario>(
                  ex::scenario::Scenario::compile(file.dag, spec, req.retry));
            });
      } catch (const std::exception&) {
        ++out.cache_failed;
        return std::shared_ptr<const ex::scenario::Scenario>();
      }
    };
    for (std::size_t i = 0; i < w.preload.size(); ++i) {
      ex::serve::WireRequest req;
      Tracer off(false);
      (void)resolve(off, w.preload[i].frame, 0, req);
    }
    std::uint64_t index = 0;
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < count; ++i) {
      scheduled[i] = t0 + std::chrono::nanoseconds(
                              static_cast<std::int64_t>(w.due_s[i] * 1e9));
      wait_until(scheduled[i]);
      ex::serve::WireRequest req;
      auto sc = resolve(tr, w.timed[i].frame, i, req);
      if (sc == nullptr) continue;
      ex::exp::EvalRequest eval;
      {
        Tracer::Scope s(tr, "serve.shed.admit", i);
        const int level = shed.level(batcher.queue_depth(), 0.0);
        const ex::exp::CostFeatures f = ex::exp::plan_features(*sc);
        const auto d = shed.degrade(level, req.method, req.trials,
                                    static_cast<std::size_t>(req.dodin_atoms),
                                    f, planner);
        eval.method = std::string(d.method);
        eval.options.mc_trials = d.mc_trials;
      }
      eval.options.seed = ex::exp::derive_seed(req.seed, index++);
      eval.options.dodin_atoms = static_cast<std::size_t>(req.dodin_atoms);
      eval.options.sp_max_atoms = static_cast<std::size_t>(req.max_atoms);
      eval.seed_final = true;
      out.evaluated.emplace_back(sc, eval);
      {
        const std::lock_guard<std::mutex> lock(m);
        ++expected;
      }
      const auto submitted = Clock::now();
      const auto due = scheduled[i];
      batcher.submit(
          std::move(sc), std::move(eval),
          [&, i, submitted, due, method = req.method](
              ex::exp::EvalResult&& r) {
            const auto called = Clock::now();
            ex::serve::ResponseMeta meta;
            meta.method_requested = method;
            meta.method_used = method;
            meta.cache = "hit";
            std::string response;
            {
              Tracer::Scope s(tr, "serve.protocol.serialize", i);
              response = ex::serve::result_response(r, meta);
            }
            const double kernel = r.seconds * 1e6;
            tr.record("serve.batch.wait", submitted,
                      called - std::chrono::nanoseconds(
                                   static_cast<std::int64_t>(kernel * 1e3)),
                      i);
            const std::lock_guard<std::mutex> lock(m);
            out.latency_us.push_back(us_between(due, Clock::now()));
            out.kernel_us.push_back(kernel);
            if (r.supported && !response.empty()) {
              ++out.answered;
            } else {
              ++out.unsupported;
            }
            ++done;
            cv.notify_all();
          });
    }
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done == expected; });
    out.seconds = us_between(t0, Clock::now()) * 1e-6;
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------------- driver

Report run_serve_churn(const Args& args) {
  Report report;
  Workload w = make_churn(args.seed, args.seconds);
  StreamHash stream;
  encode_all(w, stream);
  std::printf("serve_churn: seed %llu, %zu structures, %zu cells, %zu timed "
              "requests at %.0f/s, stream hash %s\n",
              static_cast<unsigned long long>(args.seed), w.structures.size(),
              w.cells.size(), w.timed.size(), kRatePerS, stream.hex().c_str());

  // The traced run splits its time in four: the daemon with the
  // benchmark's client (the untraced end-to-end figures and the response
  // fields), the daemon with a plain client, and the in-process replay
  // untraced and traced, whose difference is the tracing overhead.
  const std::size_t daemon_count =
      args.trace ? w.timed.size() / 4 : w.timed.size();
  double gen_late_us = 0.0;
  DaemonPhase p =
      run_daemon(w, args, daemon_count, gen_late_us, true, args.trace ? 0 : 24);

  // Index the responses by id (preload ids come first).
  std::vector<json::Value> parsed(p.received.size());
  std::vector<const json::Value*> by_id(w.preload.size() + w.timed.size(),
                                        nullptr);
  std::vector<Clock::time_point> recv_at(by_id.size());
  for (std::size_t i = 0; i < p.received.size(); ++i) {
    try {
      parsed[i] = json::parse(p.received[i].payload);
    } catch (const std::exception&) {
      continue;
    }
    const std::uint64_t id = u64(parsed[i], "id");
    if (id >= w.preload.size() && id < by_id.size() && by_id[id] == nullptr) {
      by_id[id] = &parsed[i];
      recv_at[id] = p.received[i].at;
    }
  }
  // The preload's answers must carry the hashes computed here.
  for (std::size_t i = 0; i < p.preload_responses.size(); ++i) {
    const json::Value v = json::parse(p.preload_responses[i]);
    if (str(v, "hash") !=
        ex::scenario::content_hash_hex(w.cells[w.preload[i].cell].hash)) {
      report.wrong("preload answer carries another content hash");
    }
  }

  const std::vector<Checked> checked =
      check_answers(w, by_id, w.preload.size(), daemon_count);
  EndToEnd e;
  e.setup_s = p.setup_s;
  e.timed_seconds = p.timed_seconds;
  e.attempted = daemon_count;
  e.peak_rss_mb = p.peak_rss_mb;
  std::uint64_t hits = 0, patched = 0, degraded = 0, missing = 0;
  std::vector<double> rtt_us, client_us, total_us;
  for (std::size_t i = 0; i < daemon_count; ++i) {
    const std::size_t id = w.preload.size() + i;
    const Checked& ch = checked[i];
    if (by_id[id] == nullptr) {
      ++missing;
      e.latency_us.push_back(
          us_between(p.scheduled[i], Clock::now()));  // never answered
    } else {
      e.latency_us.push_back(us_between(p.scheduled[i], recv_at[id]));
      const double client = us_between(p.sent[i], recv_at[id]);
      client_us.push_back(client);
      total_us.push_back(ch.total_us);
      rtt_us.push_back(client - ch.total_us);
    }
    if (!ch.ok) {
      report.wrong("serve_churn request " + std::to_string(i) + ": " + ch.why);
      continue;
    }
    ++e.verified;
    if (ch.as_requested) {
      ++e.as_requested;
    } else {
      ++degraded;
    }
    if (ch.cache == "hit") ++hits;
    if (ch.cache == "patched") ++patched;
  }
  const double late_bound_us = 2000.0;
  std::printf("serve_churn: sender ran %.1f us late on average (bound %.0f "
              "us)\n",
              gen_late_us, late_bound_us);
  if (gen_late_us > late_bound_us) {
    throw std::runtime_error(
        "invalid run: the open-loop sender fell behind its schedule");
  }

  if (!args.trace) {
    report_end_to_end("serve_churn", e, report);
    return report;
  }

  // ---- traced run: per-layer metrics ----------------------------------
  report.attempted = e.attempted;
  report.failed = e.attempted - e.verified;
  // The same requests from a plain client, which leaves its ACKs to ride
  // on its next request: the p50 gap is the time answers sit in the
  // daemon's socket waiting for the ACK of the previous answer (Nagle's
  // algorithm is on there).
  double plain_late_us = 0.0;
  const DaemonPhase plain =
      run_daemon(w, args, daemon_count, plain_late_us, false, 0);
  std::vector<double> plain_latency_us;
  for (const Received& r : plain.received) {
    const json::Value v = json::parse(r.payload);
    const std::uint64_t id = u64(v, "id");
    if (id < w.preload.size() || id >= w.preload.size() + daemon_count) continue;
    plain_latency_us.push_back(
        us_between(plain.scheduled[id - w.preload.size()], r.at));
  }
  const std::size_t replay_count = w.timed.size() / 4;
  Tracer off(false);
  const ReplayResult untraced = replay(w, replay_count, off);
  Tracer tr(true);
  const ReplayResult traced = replay(w, replay_count, tr);

  // The raw kernel floor: one direct evaluate_many per scenario group.
  double many_us = 0.0;
  std::size_t many_requests = 0, many_failed = 0;
  {
    ex::util::ThreadPool pool(static_cast<std::size_t>(kWorkers));
    std::map<const ex::scenario::Scenario*, std::vector<ex::exp::EvalRequest>>
        groups;
    for (const auto& [sc, req] : traced.evaluated) groups[sc.get()].push_back(req);
    for (const auto& [sc, reqs] : groups) {
      const auto t0 = Clock::now();
      std::vector<ex::exp::EvalResult> rs;
      {
        Tracer::Scope s(tr, "exp.evaluate_many", 0);
        rs = ex::exp::evaluate_many(*sc, reqs, pool);
      }
      many_us += us_between(t0, Clock::now());
      many_requests += reqs.size();
      for (const auto& r : rs) many_failed += r.supported ? 0 : 1;
    }
  }

  const auto q = static_cast<double>(std::max<std::size_t>(replay_count, 1));
  const double cache_lookups = static_cast<double>(
      std::max<std::uint64_t>(daemon_count - missing, 1));
  auto stat_delta = [&](std::string_view group, std::string_view key) {
    const json::Value* a = p.stats_after.find(group);
    const json::Value* b = p.stats_before.find(group);
    if (a == nullptr || b == nullptr) return 0.0;
    return static_cast<double>(u64(*a, key)) -
           static_cast<double>(u64(*b, key));
  };
  const double flushes = stat_delta("batch", "flushes");
  const double submitted = stat_delta("batch", "submitted");

  // Per-request self time of every server-side layer, from the replay.
  const char* const server_layers[] = {
      "util.frame.decode", "serve.protocol.parse", "graph.parse",
      "scenario.hash",     "serve.cache.resolve",  "scenario.compile",
      "scenario.patch",    "serve.shed.admit",     "serve.batch.wait",
      "serve.protocol.serialize"};
  double accounted_us = 0.0;
  for (const char* layer : server_layers) accounted_us += tr.self_total_us(layer) / q;
  const double kernel_us = mean(traced.kernel_us);
  accounted_us += kernel_us;
  const double mean_client = mean(client_us);
  const double mean_rtt = mean(rtt_us);

  report.layer("util.frame.decode_us", tr.self_us("util.frame.decode"), "us");
  report.layer("util.frame.failed", static_cast<double>(traced.frame_failed), "count");
  report.layer("serve.protocol.parse_us", tr.self_us("serve.protocol.parse"), "us");
  report.layer("serve.protocol.serialize_us",
               tr.self_us("serve.protocol.serialize"), "us");
  report.layer("serve.protocol.failed", static_cast<double>(traced.parse_failed), "count");
  report.layer("graph.parse_us", tr.self_us("graph.parse"), "us");
  report.layer("graph.failed", static_cast<double>(traced.graph_failed), "count");
  report.layer("scenario.hash_us", tr.self_us("scenario.hash"), "us");
  report.layer("scenario.compile_us", tr.self_us("scenario.compile"), "us");
  report.layer("scenario.patch_us", tr.self_us("scenario.patch"), "us");
  report.layer("serve.cache.resolve_us", tr.self_us("serve.cache.resolve"), "us");
  report.layer("serve.cache.hit_share", static_cast<double>(hits) / cache_lookups, "share");
  report.layer("serve.cache.patched_share",
               static_cast<double>(patched) / cache_lookups, "share");
  report.layer("serve.cache.compiles", stat_delta("cache", "compiles"), "count");
  report.layer("serve.cache.evictions", stat_delta("cache", "evictions"), "count");
  report.layer("serve.cache.coalesced", stat_delta("cache", "coalesced"), "count");
  report.layer("serve.cache.failed", static_cast<double>(traced.cache_failed), "count");
  report.layer("serve.shed.admit_us", tr.self_us("serve.shed.admit"), "us");
  report.layer("serve.shed.degraded_share",
               static_cast<double>(degraded) / static_cast<double>(std::max<std::size_t>(daemon_count, 1)),
               "share");
  report.layer("serve.shed.rejected",
               static_cast<double>(u64(p.stats_after, "rejected") -
                                   u64(p.stats_before, "rejected")),
               "count");
  report.layer("serve.batch.wait_us", tr.self_us("serve.batch.wait"), "us");
  report.layer("serve.batch.size_mean", flushes > 0 ? submitted / flushes : 0.0, "count");
  report.layer("serve.batch.flushes", flushes, "count");
  report.layer("exp.evaluate_many.us_per_request",
               many_requests > 0 ? many_us / static_cast<double>(many_requests) : 0.0,
               "us");
  report.layer("exp.evaluate_many.failed",
               static_cast<double>(many_failed + traced.unsupported), "count");
  report.layer("serve.net.rtt_us", mean_rtt, "us");
  report.layer("serve.net.failed", static_cast<double>(missing), "count");
  report.layer("serve.net.nagle_hold_us",
               median(plain_latency_us) - median(e.latency_us), "us");
  report.layer("serve.unaccounted_us", mean_client - mean_rtt - accounted_us, "us");
  report.layer("bench.gen_late_us", gen_late_us, "us");
  report.layer("bench.trace_overhead.p50_us",
               median(traced.latency_us) - median(untraced.latency_us), "us");
  report.layer("bench.trace_overhead.queries_per_s",
               static_cast<double>(traced.answered) / traced.seconds -
                   static_cast<double>(untraced.answered) / untraced.seconds,
               "1/s");
  std::printf("serve_churn: daemon mean client latency %.1f us = server "
              "total %.1f us + net %.1f us; replayed layers account for %.1f "
              "us of the server time (kernel %.1f us)\n",
              mean_client, mean(total_us), mean_rtt,
              accounted_us, kernel_us);
  if (!args.spans_out.empty()) tr.write(args.spans_out);
  return report;
}

}  // namespace perfbench
