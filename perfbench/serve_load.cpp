// Open-loop load generator and checker for the mlckd workloads of the repo
// benchmark (see perfbench/README.md).
//
//   perfbench_serve --mlck=<mlck binary> --workload=cold|warm --seed=N
//                   --seconds=S --dir=<scratch dir>
//                   [--traced] [--preload=<shim.so>]
//
// It spawns `mlck serve` (the daemon receives only the generated requests),
// times set-up, drives the daemon from at most four connections, checks
// every response byte-for-byte against a direct serve::evaluate of the same
// request, and prints one JSON object as its last stdout line.
//
// Phases: warm-up; kRounds rounds of a nominal fixed-rate open-loop window
// (p50/p99 from each request's scheduled send time) followed by a fixed
// closed-loop batch (wall_s); then a step-down search and bisection over a
// fixed geometric rate ladder for the highest rate whose p99 meets the
// workload limit without a growing backlog (max_rate_rps). --traced skips
// the ladder, measures the ping round trip and starts the daemon with
// --metrics (and LD_PRELOAD=<shim> when --preload is given) so the
// per-layer numbers can be read afterwards.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialize.h"
#include "serve/client.h"
#include "serve/request.h"
#include "systems/test_systems.h"
#include "util/json.h"

extern char** environ;

namespace {

using mlck::util::Json;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kThreads = 4;  // nproc of the reference host
constexpr int kSetupRepeats = 21;
constexpr int kRounds = 6;  // nominal window + batch pairs per run
constexpr std::size_t kHotSet = 64;      // fits the daemon's 128-entry cache
constexpr double kZipfS = 1.1;
constexpr double kLadderStep = 1.025;
constexpr std::size_t kRungSegments = 3;  // slices a rung's p99 is judged on
constexpr int kStepDown = 8;              // rungs per step below a failed start
constexpr int kRungAttempts = 3;
constexpr std::size_t kMaxRungs = 12;  // rung runs, retries included
/// 3 laws x 3 ops x 11 Table I systems x 3 law parameters.
constexpr std::uint64_t kCells = 297;

/// Per-workload constants. Rates are requests per second.
struct Profile {
  std::size_t connections;  ///< client threads, one connection each
  double nominal_rps;
  double ladder_base_rps;  ///< rung k runs at ladder_base_rps * 1.025^k
  double p99_limit_ms;
  std::size_t batch;       ///< closed-loop batch size behind wall_s
};

// Cold: four connections keep up to four requests queued at the single
// executor. Warm: one connection; with more, the hit round trips of this
// host flip run by run between two throughput levels far apart.
const Profile kCold{4, 100.0, 20.0, 50.0, kCells};
const Profile kWarm{1, 2000.0, 500.0, 5.0, 10000};

// ---------------------------------------------------------------- inputs

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small deterministic generator; uniform() is in [0, 1).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = splitmix64(state); }
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
};

double round3(double x) { return std::round(x * 1000.0) / 1000.0; }

/// Request i of the seeded stream: a Table I system inlined with its MTBF
/// and T_B perturbed by up to +-20%, one of three failure laws (shape and
/// sigma from small fixed sets, so law parameters recur while whole
/// requests do not), and one of optimize/predict/scenario, as picked by
/// @p cell (one of kCells (law, op, system, law parameter) combinations).
/// The seed and the index draw the perturbations.
std::string make_request(std::uint64_t seed, std::uint64_t i, std::uint64_t cell) {
  static const std::vector<mlck::systems::SystemConfig> systems =
      mlck::systems::table1_systems();
  Rng rng{splitmix64(seed ^ 0x5eedf00dULL) + i * 0x2545f4914f6cdd1dULL};
  const std::uint64_t law = cell % 3, op = (cell / 3) % 3,
                      param = (cell / 99) % 3;
  mlck::systems::SystemConfig system = systems[(cell / 9) % 11];
  system.mtbf = round3(system.mtbf * std::exp(0.4 * rng.uniform() - 0.2));
  system.base_time =
      round3(system.base_time * std::exp(0.4 * rng.uniform() - 0.2));

  Json::Object failure;
  switch (law) {
    case 0: failure["law"] = Json("exponential"); break;
    case 1:
      failure["law"] = Json("weibull");
      failure["shape"] = Json(std::vector<double>{0.6, 0.7, 0.8}[param]);
      break;
    default:
      failure["law"] = Json("lognormal");
      failure["sigma"] = Json(std::vector<double>{0.8, 1.0, 1.2}[param]);
      break;
  }
  Json::Object optimizer;
  optimizer["coarse_tau_points"] = Json(16);
  optimizer["max_count"] = Json(8);
  optimizer["refine_rounds"] = Json(8);

  Json::Object doc;
  if (op == 0) {
    doc["op"] = Json("optimize");
    doc["system"] = mlck::core::to_json(system);
    doc["failure"] = Json(std::move(failure));
    doc["optimizer"] = Json(std::move(optimizer));
  } else if (op == 1) {
    // A plan a user would run: every level checkpointed, the level-1
    // interval near Young's sqrt(2 * delta_1 * MTBF).
    Json::Array levels, counts;
    for (int l = 0; l < system.levels(); ++l) {
      levels.emplace_back(l);
      if (l > 0) counts.emplace_back(static_cast<int>(1 + rng.index(3)));
    }
    Json::Object plan;
    plan["tau0"] = Json(round3(std::sqrt(2.0 * system.checkpoint_cost[0] * system.mtbf) *
                               (0.7 + 0.7 * rng.uniform())));
    plan["levels"] = Json(std::move(levels));
    plan["counts"] = Json(std::move(counts));
    doc["op"] = Json("predict");
    doc["system"] = mlck::core::to_json(system);
    doc["failure"] = Json(std::move(failure));
    doc["plan"] = Json(std::move(plan));
  } else {
    Json::Object spec;
    spec["system"] = mlck::core::to_json(system);
    spec["failure"] = Json(std::move(failure));
    spec["optimizer"] = Json(std::move(optimizer));
    spec["trials"] = Json(8);
    spec["seed"] = Json(static_cast<double>(rng.next() >> 40));
    doc["op"] = Json("scenario");
    doc["spec"] = Json(std::move(spec));
  }
  return Json(std::move(doc)).dump();
}

/// The identity check's right-hand side, computed without the daemon.
std::string direct_response(const std::string& text) {
  const auto request = mlck::serve::Request::parse(Json::parse(text));
  return mlck::serve::ok_response(request.id, mlck::serve::evaluate(request));
}

/// FNV-1a over every request text sent, in send order.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
    h = (h ^ 0xff) * 0x100000001b3ULL;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Where requests come from: a fresh index per send for cold (every key
/// distinct, so the cache always misses), Zipf draws over the hot set for
/// warm (every timed request hits). Cold cycles through every cell from a
/// seeded offset; hot request k has the fixed cell 37k mod kCells, so
/// every seed sends the same mix of work and only the perturbations
/// differ.
class Source {
 public:
  Source(bool warm, std::uint64_t seed) : warm_(warm), seed_(seed) {
    rng_.state = splitmix64(seed ^ 0x21bfULL);
    if (warm_) {
      double total = 0.0;
      for (std::size_t k = 0; k < kHotSet; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  /// Next request index, recorded in the stream digest.
  std::uint64_t next() {
    std::uint64_t i = 0;
    if (warm_) {
      const double u = rng_.uniform();
      i = static_cast<std::uint64_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      if (i >= kHotSet) i = kHotSet - 1;
    } else {
      i = next_fresh_++;
    }
    digest_.add(text(i));
    ++sent_;
    return i;
  }

  /// Request text for index i (cached: texts are generated once).
  const std::string& text(std::uint64_t i) {
    while (texts_.size() <= i) {
      const std::uint64_t k = texts_.size();
      texts_.push_back(make_request(seed_, k, cell(k)));
    }
    return texts_[i];
  }

  /// The (law, op, system, law parameter) cell of request index i.
  std::uint64_t cell(std::uint64_t i) const {
    return warm_ ? i * 37 % kCells : (i + splitmix64(seed_)) % kCells;
  }

  std::size_t distinct() const { return warm_ ? kHotSet : next_fresh_; }
  std::size_t sent() const { return sent_; }
  const Digest& digest() const { return digest_; }

 private:
  bool warm_;
  std::uint64_t seed_;
  Rng rng_{0};
  std::vector<double> cdf_;
  std::uint64_t next_fresh_ = 0;
  std::size_t sent_ = 0;
  Digest digest_;
  std::vector<std::string> texts_;
};

// ---------------------------------------------------------------- daemon

/// A spawned `mlck serve`; killed and reaped on destruction unless
/// stop_daemon() already reaped it, so no exit path leaves it running.
struct Daemon {
  pid_t pid = -1;
  std::string socket;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon& operator=(Daemon&& other) noexcept {
    reap();
    pid = std::exchange(other.pid, -1);
    socket = std::move(other.socket);
    return *this;
  }
  ~Daemon() { reap(); }

  void reap() noexcept {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }
};

void spawn_daemon(Daemon& d, const std::string& mlck, const std::string& dir,
                  int k, const std::vector<std::string>& extra_env,
                  const std::string& metrics_path) {
  d.reap();
  d.socket = dir + "/mlckd" + std::to_string(k) + ".sock";
  ::unlink(d.socket.c_str());
  std::vector<std::string> args = {mlck, "serve", "--socket=" + d.socket};
  if (!metrics_path.empty()) args.push_back("--metrics=" + metrics_path);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) env_store.emplace_back(*e);
  for (const auto& e : extra_env) env_store.push_back(e);
  std::vector<char*> envp;
  for (auto& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string log = dir + "/mlckd" + std::to_string(k) + ".log";
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = posix_spawn(&d.pid, mlck.c_str(), &actions, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    d.pid = -1;
    throw std::runtime_error("cannot spawn " + mlck);
  }
}

/// Polls until the daemon answers a ping; throws after 20 s.
void wait_ready(const Daemon& d) {
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (true) {
    try {
      mlck::serve::Client client(d.socket);
      const Json pong = Json::parse(client.call_raw("{\"op\":\"ping\"}"));
      if (pong.at("ok").as_bool()) return;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
      throw std::runtime_error("mlck serve exited before answering a ping");
    }
    if (Clock::now() > deadline) {
      throw std::runtime_error("mlck serve did not answer a ping in 20 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Sends `shutdown` and reaps the daemon; returns its peak RSS in KiB.
long stop_daemon(Daemon& d) {
  try {
    mlck::serve::Client client(d.socket);
    (void)client.call_raw("{\"op\":\"shutdown\"}");
  } catch (const std::exception&) {
    ::kill(d.pid, SIGTERM);
  }
  int status = 0;
  struct rusage usage {};
  const pid_t reaped = ::wait4(d.pid, &status, 0, &usage);
  d.pid = -1;
  if (reaped <= 0) throw std::runtime_error("cannot reap mlck serve");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("mlck serve did not exit cleanly");
  }
  return usage.ru_maxrss;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- load

/// Outcome counts shared by every phase.
struct Tally {
  std::atomic<std::size_t> attempted{0}, failed{0}, refused{0},
      mismatched{0};
};

struct Sample {
  double latency_ms;   ///< completion minus scheduled send time
  double lateness_ms;  ///< actual minus scheduled send time
  std::uint64_t index; ///< the request sent
};

struct PhaseResult {
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

class Driver {
 public:
  Driver(const std::string& socket, Source& source, bool warm,
         std::size_t connections, const std::vector<std::string>& expected_hot)
      : socket_(socket), source_(source), warm_(warm),
        expected_hot_(expected_hot) {
    for (std::size_t c = 0; c < connections; ++c) {
      clients_.push_back(std::make_unique<mlck::serve::Client>(socket_));
    }
  }

  /// Runs one phase of @p count requests. rate > 0: open loop at the
  /// fixed @p rate (evenly spaced sends, so arrival bursts add no noise of
  /// their own). rate == 0: closed loop.
  PhaseResult run(double rate, std::size_t count) {
    std::vector<double> due;  // offsets in seconds; empty = closed loop
    std::vector<std::uint64_t> indices;
    if (rate > 0.0) {
      for (std::size_t k = 0; k < count; ++k) {
        due.push_back(static_cast<double>(k) / rate);
        indices.push_back(source_.next());
      }
    } else {
      for (std::size_t k = 0; k < count; ++k) indices.push_back(source_.next());
    }
    for (std::uint64_t i : indices) (void)source_.text(i);

    PhaseResult result;
    result.samples.resize(indices.size());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t k = next.fetch_add(1); k < indices.size();
             k = next.fetch_add(1)) {
          const auto scheduled =
              due.empty() ? Clock::now()
                          : start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(due[k]));
          std::this_thread::sleep_until(scheduled);
          const auto sent = Clock::now();
          const std::uint64_t i = indices[k];
          const std::string response = call(c, source_.text(i));
          const auto done = Clock::now();
          record(i, response);
          result.samples[k] = Sample{
              std::chrono::duration<double, std::milli>(done - scheduled).count(),
              std::chrono::duration<double, std::milli>(sent - scheduled).count(), i};
        }
      });
    }
    const auto t0 = Clock::now();
    for (auto& t : threads) t.join();
    result.wall_s = seconds_since(due.empty() ? t0 : start);
    return result;
  }

  /// Responses of cold requests, checked after the daemon stops.
  std::map<std::uint64_t, std::string> cold_responses;
  Tally tally;

 private:
  std::string call(std::size_t c, const std::string& text) {
    try {
      if (!clients_[c]) clients_[c] = std::make_unique<mlck::serve::Client>(socket_);
      return clients_[c]->call_raw(text);
    } catch (const std::exception&) {
      clients_[c].reset();
      return std::string();
    }
  }

  void record(std::uint64_t i, const std::string& response) {
    tally.attempted.fetch_add(1, std::memory_order_relaxed);
    if (response.empty()) {
      tally.failed.fetch_add(1, std::memory_order_relaxed);
    } else if (response.find("\"ok\":false") != std::string::npos) {
      tally.refused.fetch_add(1, std::memory_order_relaxed);
    } else if (warm_) {
      if (response != expected_hot_[i]) {
        tally.mismatched.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      const std::lock_guard<std::mutex> lock(mutex_);
      cold_responses[i] = response;
    }
  }

  std::string socket_;
  Source& source_;
  bool warm_;
  const std::vector<std::string>& expected_hot_;
  std::vector<std::unique_ptr<mlck::serve::Client>> clients_;
  std::mutex mutex_;
};

struct Rung {
  double rate = 0.0;
  double p99_ms = 0.0;
  double late_growth_ms = 0.0;
  bool backlog_growing = false;
  bool pass = false;
};

/// Judges one open-loop phase against the workload limit. The backlog
/// keeps growing when the generator's median lateness rises from each
/// quarter of the phase to the next, by more than half the limit in all:
/// an overloaded rate then reads as a missed limit, not as a lower
/// latency, while a host stall, which backlogs one quarter and drains,
/// does not. The p99 is that of the calmest of @p segments consecutive
/// slices of the phase: a stall only ever adds time, and a slice clear of
/// it still shows the rate's own queueing.
Rung judge(const PhaseResult& phase, double rate, double limit_ms,
           std::size_t errors_before, std::size_t errors_after,
           std::size_t segments = 1) {
  Rung r;
  r.rate = rate;
  const std::size_t n = phase.samples.size();
  auto slice = [&](std::size_t s, std::size_t of, double Sample::*field) {
    std::vector<double> v;
    for (std::size_t k = s * n / of; k < (s + 1) * n / of; ++k) {
      v.push_back(phase.samples[k].*field);
    }
    return v;
  };
  r.p99_ms = n > 0 ? HUGE_VAL : 0.0;
  for (std::size_t s = 0; s < segments; ++s) {
    const std::vector<double> lat = slice(s, segments, &Sample::latency_ms);
    if (!lat.empty()) r.p99_ms = std::min(r.p99_ms, quantile(lat, 0.99));
  }
  double late[4];
  bool rising = true;
  for (std::size_t q = 0; q < 4; ++q) {
    late[q] = quantile(slice(q, 4, &Sample::lateness_ms), 0.5);
    if (q > 0 && late[q] <= late[q - 1]) rising = false;
  }
  r.late_growth_ms = late[3] - late[0];
  r.backlog_growing = rising && r.late_growth_ms > 0.5 * limit_ms;
  r.pass = n > 0 && r.p99_ms <= limit_ms && !r.backlog_growing &&
           errors_after == errors_before;
  return r;
}

std::size_t error_count(const Tally& t) {
  return t.failed.load() + t.refused.load() + t.mismatched.load();
}

Json stats_of(const std::string& socket) {
  mlck::serve::Client client(socket);
  return Json::parse(client.call_raw("{\"op\":\"stats\"}")).at("result");
}

/// Median client round trip of the protocol's cheapest request.
double ping_rtt_us(const std::string& socket) {
  mlck::serve::Client client(socket);
  std::vector<double> rtt;
  for (int k = 0; k < 400; ++k) {
    const auto t0 = Clock::now();
    (void)client.call_raw("{\"op\":\"ping\"}");
    if (k >= 100) {
      rtt.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
  }
  return quantile(rtt, 0.5);
}

std::string arg(int argc, char** argv, const std::string& key,
                const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int k = 1; k < argc; ++k) {
    const std::string a = argv[k];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    if (a == "--" + key) return "1";
  }
  return fallback;
}

/// Evaluates @p texts directly on kThreads threads.
std::vector<std::string> direct_all(const std::vector<std::string>& texts) {
  std::vector<std::string> out(texts.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kThreads; ++c) {
    threads.emplace_back([&] {
      for (std::size_t k = next.fetch_add(1); k < texts.size(); k = next.fetch_add(1)) {
        out[k] = direct_response(texts[k]);
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

int run(int argc, char** argv) {
  const std::string mlck = arg(argc, argv, "mlck", "");
  const std::string workload = arg(argc, argv, "workload", "");
  const std::string dir = arg(argc, argv, "dir", "");
  const auto seed = static_cast<std::uint64_t>(std::stoull(arg(argc, argv, "seed", "1")));
  const double seconds = std::stod(arg(argc, argv, "seconds", "10"));
  const bool traced = arg(argc, argv, "traced", "") == "1";
  const std::string preload = arg(argc, argv, "preload", "");
  if (mlck.empty() || dir.empty() || (workload != "cold" && workload != "warm")) {
    std::cerr << "usage: perfbench_serve --mlck=PATH --workload=cold|warm "
                 "--seed=N --seconds=S --dir=DIR [--traced] [--preload=SO]\n";
    return 2;
  }
  const bool warm = workload == "warm";
  const Profile& profile = warm ? kWarm : kCold;
  ::prctl(PR_SET_TIMERSLACK, 1UL);

  Source source(warm, seed);
  std::vector<std::string> hot_texts, expected_hot;
  if (warm) {
    for (std::size_t k = 0; k < kHotSet; ++k) hot_texts.push_back(source.text(k));
    expected_hot = direct_all(hot_texts);
  }

  std::vector<std::string> env;
  if (!preload.empty()) {
    env.push_back("LD_PRELOAD=" + preload);
    env.push_back("PERFBENCH_TRACE_DIR=" + dir);
  }
  const std::string metrics_path = traced ? dir + "/daemon_metrics.json" : "";

  // Set-up: spawn to first answered ping, plus the hot-set fill on warm;
  // repeated, the last daemon stays up for the measurement.
  std::vector<double> setups;
  Daemon daemon;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const bool keep = k == kSetupRepeats - 1;
    const auto t0 = Clock::now();
    spawn_daemon(daemon, mlck, dir, k, keep ? env : std::vector<std::string>{},
                 keep ? metrics_path : "");
    wait_ready(daemon);
    if (warm) {
      mlck::serve::Client client(daemon.socket);
      for (const auto& text : hot_texts) (void)client.call_raw(text);
    }
    setups.push_back(seconds_since(t0));
    if (!keep) (void)stop_daemon(daemon);
  }
  const Json stats_before = stats_of(daemon.socket);

  Driver driver(daemon.socket, source, warm, profile.connections, expected_hot);
  // Warm-up, not reported.
  (void)driver.run(profile.nominal_rps, static_cast<std::size_t>(0.5 * profile.nominal_rps));

  // Nominal-rate windows alternate with closed-loop batches, so slow and
  // fast spells of the host fall on both. Host stalls only ever add time,
  // so wall_s is the fastest batch (best of kRounds). A cold window is one
  // full cycle of the kCells cells, so each cell's latency is its fastest
  // over the windows and p50/p99 are over those kCells figures; warm
  // p50/p99 are the calmest window's. The pooled figures are kept for
  // reference.
  const std::size_t window =
      warm ? static_cast<std::size_t>(0.5 * seconds / kRounds * profile.nominal_rps)
           : kCells;
  PhaseResult nominal;
  std::vector<double> batch_walls, window_p50, window_p99;
  for (int round = 0; round < kRounds; ++round) {
    const PhaseResult phase = driver.run(profile.nominal_rps, window);
    std::vector<double> window_lat;
    for (const Sample& s : phase.samples) window_lat.push_back(s.latency_ms);
    window_p50.push_back(quantile(window_lat, 0.50));
    window_p99.push_back(quantile(window_lat, 0.99));
    nominal.samples.insert(nominal.samples.end(), phase.samples.begin(),
                           phase.samples.end());
    batch_walls.push_back(driver.run(0.0, profile.batch).wall_s);
  }
  const double batch_wall = quantile(batch_walls, 0.0);
  double p50 = quantile(window_p50, 0.0), p99 = quantile(window_p99, 0.0);
  if (!warm) {
    std::vector<double> best(kCells, HUGE_VAL);
    for (const Sample& s : nominal.samples) {
      double& b = best[source.cell(s.index)];
      b = std::min(b, s.latency_ms);
    }
    p50 = quantile(best, 0.50);
    p99 = quantile(best, 0.99);
  }

  // Rate ladder: probe the rung at 0.8x the closed-loop batch rate and
  // step down from it until a rung meets the limit, then bisect between
  // that rung and the lowest failed one (or 1.2x the batch rate). The
  // reported rung was run and passed.
  std::vector<Rung> rungs;
  double max_rate = 0.0;
  bool converged = false;
  if (!traced) {
    const double rung_s = std::max(1.0, seconds / 24.0);
    const double closed_rate = static_cast<double>(profile.batch) / batch_wall;
    auto rate_of = [&](int k) { return profile.ladder_base_rps * std::pow(kLadderStep, k); };
    auto rung_below = [&](double rate) {
      return std::max(0, static_cast<int>(std::floor(
                             std::log(rate / profile.ladder_base_rps) / std::log(kLadderStep))));
    };
    // A rung that misses the limit is run again, up to kRungAttempts
    // times: a slow spell of the host only ever adds time, so the rung
    // passes if any run meets it.
    auto try_rung = [&](int k) {
      for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
        const std::size_t errors_before = error_count(driver.tally);
        const PhaseResult phase =
            driver.run(rate_of(k), static_cast<std::size_t>(rung_s * rate_of(k)));
        rungs.push_back(judge(phase, rate_of(k), profile.p99_limit_ms, errors_before,
                              error_count(driver.tally), kRungSegments));
        if (rungs.back().pass) return true;
        // Let a failed rung's backlog drain before the next run.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      return false;
    };
    int lo = rung_below(0.8 * closed_rate), hi = rung_below(1.2 * closed_rate) + 1;
    bool lo_ran = false;
    while (!lo_ran && lo >= 0 && rungs.size() < kMaxRungs) {
      if (try_rung(lo)) {
        lo_ran = true;
      } else {
        hi = lo;
        lo = lo == 0 ? -1 : std::max(0, lo - kStepDown);
      }
    }
    // The bracket spans about 16 rungs: four probes bisect it.
    while (lo_ran && hi - lo > 1 && rungs.size() < kMaxRungs) {
      const int mid = (lo + hi) / 2;
      if (try_rung(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    converged = lo_ran && hi - lo == 1;
    max_rate = lo_ran ? rate_of(lo) : 0.0;
  }

  const Json stats_after = stats_of(daemon.socket);
  const double rtt = traced ? ping_rtt_us(daemon.socket) : 0.0;
  const long peak_kib = stop_daemon(daemon);

  // Identity check of every cold response against direct evaluation.
  if (!warm) {
    std::vector<std::string> texts;
    std::vector<std::uint64_t> ids;
    for (const auto& [i, response] : driver.cold_responses) {
      ids.push_back(i);
      texts.push_back(source.text(i));
    }
    const std::vector<std::string> want = direct_all(texts);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (driver.cold_responses[ids[k]] != want[k]) driver.tally.mismatched++;
    }
  }

  std::vector<double> lat, late;
  for (const Sample& s : nominal.samples) {
    lat.push_back(s.latency_ms);
    late.push_back(s.lateness_ms);
  }
  const Json& cache_before = stats_before.at("plan_cache");
  const Json& cache_after = stats_after.at("plan_cache");
  const double timed_misses =
      cache_after.at("misses").as_number() - cache_before.at("misses").as_number();

  Json::Object out;
  out["workload"] = Json(workload);
  out["seed"] = Json(static_cast<double>(seed));
  out["stream_digest"] = Json(source.digest().hex());
  out["requests_sent"] = Json(static_cast<double>(source.sent()));
  out["distinct_requests"] = Json(static_cast<double>(source.distinct()));
  std::sort(setups.begin(), setups.end());
  out["setup_s"] = Json(setups[setups.size() / 2]);
  Json::Array setup_samples;
  for (double s : setups) setup_samples.emplace_back(s);
  out["setup_samples_s"] = Json(std::move(setup_samples));
  out["peak_rss_mb"] = Json(static_cast<double>(peak_kib) / 1024.0);
  out["nominal_rps"] = Json(profile.nominal_rps);
  out["nominal_requests"] = Json(static_cast<double>(lat.size()));
  out["p50_ms"] = Json(p50);
  out["p99_ms"] = Json(p99);
  out["p50_pooled_ms"] = Json(quantile(lat, 0.50));
  out["p99_pooled_ms"] = Json(quantile(lat, 0.99));
  Json::Array p99s;
  for (double w : window_p99) p99s.emplace_back(w);
  out["window_p99_ms"] = Json(std::move(p99s));
  out["lateness_p50_ms"] = Json(quantile(late, 0.50));
  out["lateness_p99_ms"] = Json(quantile(late, 0.99));
  const Rung at_nominal = judge(nominal, profile.nominal_rps, profile.p99_limit_ms, 0, 0);
  out["lateness_growth_ms"] = Json(at_nominal.late_growth_ms);
  out["nominal_meets_limit"] = Json(at_nominal.pass);
  out["p99_limit_ms"] = Json(profile.p99_limit_ms);
  out["batch_requests"] = Json(static_cast<double>(profile.batch));
  out["wall_s"] = Json(batch_wall);
  Json::Array walls;
  for (double w : batch_walls) walls.emplace_back(w);
  out["batch_walls_s"] = Json(std::move(walls));
  out["max_rate_rps"] = Json(max_rate);
  out["ladder_converged"] = Json(converged);
  Json::Array ladder;
  for (const Rung& r : rungs) {
    Json::Object o;
    o["rate_rps"] = Json(r.rate);
    o["p99_ms"] = Json(r.p99_ms);
    o["lateness_growth_ms"] = Json(r.late_growth_ms);
    o["backlog_growing"] = Json(r.backlog_growing);
    o["pass"] = Json(r.pass);
    ladder.emplace_back(std::move(o));
  }
  out["ladder"] = Json(std::move(ladder));
  out["attempted"] = Json(static_cast<double>(driver.tally.attempted.load()));
  out["failed"] = Json(static_cast<double>(driver.tally.failed.load()));
  out["refused"] = Json(static_cast<double>(driver.tally.refused.load()));
  out["mismatched"] = Json(static_cast<double>(driver.tally.mismatched.load()));
  out["timed_cache_misses"] = Json(timed_misses);
  out["stats_before"] = stats_before;
  out["stats_after"] = stats_after;
  out["ping_rtt_us"] = Json(rtt);
  std::cout << Json(std::move(out)).dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_serve: " << e.what() << "\n";
    return 1;
  }
}
