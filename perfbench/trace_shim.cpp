// perfbench_trace: times calls into each layer's public functions of a
// shared mlck build from outside the program.
//
// Preloaded (LD_PRELOAD) into a driver or into `mlck serve` built with
// -DBUILD_SHARED_LIBS=ON, it defines the same functions as the libraries.
// The dynamic linker binds every cross-library call and every vtable slot
// to these wrappers first; each wrapper opens a span, calls the original
// (found with dlsym(RTLD_NEXT) under its own symbol name) and closes the
// span. Spans and per-function totals stay in memory and are written to
// $PERFBENCH_TRACE_DIR when the process exits:
//
//   trace-<pid>.json         per-function and per-layer calls, total and
//                            self time, plus the work counters read from
//                            return values (trials, failures, evaluations)
//   trace-<pid>.spans.jsonl  one span per line: id, parent, root, thread,
//                            name, start and end (ns); capped
//
// Self time is a span's duration minus that of the spans it directly
// encloses on the same thread. Pool waits (layer util) are reported but
// never subtracted from their caller: the caller's own work runs on the
// pool while it waits.
#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/interval_schedule.h"
#include "core/optimizer.h"
#include "core/technique.h"
#include "engine/evaluation.h"
#include "engine/scenario.h"
#include "exp/experiments.h"
#include "models/benoit.h"
#include "models/daly.h"
#include "models/di.h"
#include "models/moody.h"
#include "models/young.h"
#include "serve/plan_cache.h"
#include "serve/request.h"
#include "sim/trial_runner.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace perfbench {

enum Layer { kMath, kCore, kModels, kEngine, kSim, kExp, kServe, kUtil, kLayers };
const char* const kLayerNames[kLayers] = {"math", "core",  "models", "engine",
                                          "sim",  "exp",   "serve",  "util"};

struct FnInfo {
  const char* name;
  Layer layer;
};

enum Fn {
  kRunTrialsPlan, kRunTrialsInterval, kRunTrialsAdaptive, kRunTrialsDist,
  kSelectDauwe, kSelectMoody, kSelectDi, kSelectBenoit, kSelectDaly,
  kSelectYoung,
  kOptimizeIntervals, kOptimizeIntervalsWith, kOptimizeIntervalsStaged,
  kEngineOptimize, kEnginePredict, kEngineRunScenario, kLawFamily,
  kExpRunScenario, kExpEvaluateTechnique,
  kServeEvaluate, kRequestParse, kCanonicalKey, kCacheGet, kCachePut,
  kOkResponse, kJsonParse, kPoolSubmit, kPoolWaitIdle, kFns
};

const FnInfo kFnInfo[kFns] = {
    {"sim.run_trials", kSim},
    {"sim.run_trials.interval", kSim},
    {"sim.run_trials.adaptive", kSim},
    {"sim.run_trials_with_distribution", kSim},
    {"models.select.dauwe", kCore},  // DauweTechnique lives in core
    {"models.select.moody", kModels},
    {"models.select.di", kModels},
    {"models.select.benoit", kModels},
    {"models.select.daly", kModels},
    {"models.select.young", kModels},
    {"core.optimize_intervals", kCore},
    {"core.optimize_intervals_with", kCore},
    {"core.optimize_intervals_staged", kCore},
    {"engine.optimize", kEngine},
    {"engine.predict", kEngine},
    {"engine.run_scenario", kEngine},
    {"math.law_build", kMath},  // engine::DistributionSpec::family()
    {"exp.run_scenario", kExp},
    {"exp.evaluate_technique", kExp},
    {"serve.evaluate", kServe},
    {"serve.request_parse", kServe},
    {"serve.canonical_key", kServe},
    {"serve.cache_get", kServe},
    {"serve.cache_put", kServe},
    {"serve.envelope", kServe},
    {"util.json_parse", kUtil},
    {"util.pool_submit", kUtil},
    {"util.pool_wait", kUtil},
};

bool is_wait(Fn fn) { return fn == kPoolWaitIdle; }

/// Work counters read from return values and arguments.
enum Counter {
  kTrials, kFailures, kCappedTrials, kEvaluations, kCoarseEvaluations,
  kLatticePoints, kEvalOptimizeCalls,
  kEvalOptimizeNs, kEvalPredictCalls, kEvalPredictNs, kEvalScenarioCalls,
  kEvalScenarioNs, kEvalNonExpNs, kOptimizeNs, kCounters
};
const char* const kCounterNames[kCounters] = {
    "trials", "failures", "capped_trials", "evaluations",
    "coarse_evaluations", "lattice_points",
    "evaluate_optimize_calls", "evaluate_optimize_ns",
    "evaluate_predict_calls", "evaluate_predict_ns",
    "evaluate_scenario_calls", "evaluate_scenario_ns",
    "evaluate_nonexp_ns", "optimize_ns"};

struct Totals {
  std::atomic<std::uint64_t> calls{0}, total_ns{0}, self_ns{0}, max_ns{0};
};

Totals g_fn[kFns];
Totals g_layer[kLayers];
std::atomic<double> g_counters[kCounters];
std::atomic<std::uint64_t> g_next_span{1};

struct SpanRecord {
  std::uint64_t id, parent, root;
  std::int64_t start_ns, end_ns;
  std::uint32_t thread;
  Fn fn;
};

constexpr std::size_t kMaxSpans = 400000;
std::atomic<std::size_t> g_span_count{0};
std::atomic<std::uint64_t> g_spans_dropped{0};

/// Per-thread span storage, registered globally and never freed so the
/// exit-time writer can read it after the thread ended.
struct ThreadLog {
  std::mutex mutex;
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_logs_mutex;
std::vector<ThreadLog*>* g_logs = new std::vector<ThreadLog*>();
std::atomic<std::uint32_t> g_next_thread{1};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void add(std::atomic<double>& a, double v) {
  double old = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(old, old + v, std::memory_order_relaxed)) {
  }
}

void raise_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t old = a.load(std::memory_order_relaxed);
  while (old < v &&
         !a.compare_exchange_weak(old, v, std::memory_order_relaxed)) {
  }
}

struct Frame {
  Fn fn;
  std::uint64_t id;
  std::int64_t start;
  std::int64_t child_ns;
};

struct ThreadState {
  std::vector<Frame> stack;
  ThreadLog* log = nullptr;
};

ThreadState& state() {
  thread_local ThreadState s;
  if (s.log == nullptr) {
    s.log = new ThreadLog();
    s.log->thread = g_next_thread.fetch_add(1);
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs->push_back(s.log);
  }
  return s;
}

/// One timed call. `outermost` is true when no enclosing span on this
/// thread belongs to the same layer, so layer totals never count nested
/// time twice and work counters are read once per top-level call.
class Span {
 public:
  explicit Span(Fn fn) : fn_(fn) {
    ThreadState& s = state();
    outermost_ = true;
    for (const Frame& f : s.stack) {
      if (kFnInfo[f.fn].layer == kFnInfo[fn].layer) outermost_ = false;
    }
    s.stack.push_back(Frame{fn, g_next_span.fetch_add(1), now_ns(), 0});
  }

  ~Span() {
    const std::int64_t end = now_ns();
    ThreadState& s = state();
    const Frame frame = s.stack.back();
    s.stack.pop_back();
    const auto duration = static_cast<std::uint64_t>(end - frame.start);
    const std::uint64_t self =
        duration - static_cast<std::uint64_t>(frame.child_ns);
    if (!s.stack.empty() && !is_wait(fn_)) {
      s.stack.back().child_ns += static_cast<std::int64_t>(duration);
    }
    Totals& f = g_fn[fn_];
    f.calls.fetch_add(1, std::memory_order_relaxed);
    f.total_ns.fetch_add(duration, std::memory_order_relaxed);
    f.self_ns.fetch_add(self, std::memory_order_relaxed);
    raise_max(f.max_ns, duration);
    Totals& l = g_layer[kFnInfo[fn_].layer];
    l.calls.fetch_add(1, std::memory_order_relaxed);
    l.self_ns.fetch_add(self, std::memory_order_relaxed);
    if (outermost_) l.total_ns.fetch_add(duration, std::memory_order_relaxed);

    if (g_span_count.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
      const std::lock_guard<std::mutex> lock(s.log->mutex);
      s.log->spans.push_back(SpanRecord{
          frame.id, s.stack.empty() ? 0 : s.stack.back().id,
          s.stack.empty() ? frame.id : s.stack.front().id, frame.start, end,
          s.log->thread, fn_});
    } else {
      g_spans_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool outermost() const { return outermost_; }
  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(now_ns() - state().stack.back().start);
  }

 private:
  Fn fn_;
  bool outermost_ = true;
};

[[noreturn]] void die(const char* what, const char* detail) {
  std::fprintf(stderr, "perfbench_trace: %s: %s\n", what, detail);
  std::_Exit(70);
}

/// Returns an address inside the calling wrapper.
[[gnu::noipa]] void* here() { return __builtin_return_address(0); }

/// The original behind the wrapper containing @p inside: the wrapper's
/// own dynamic symbol name, looked up past this library. @p expect is a
/// fragment of that mangled name, a guard against resolving the wrong
/// wrapper.
void* original(void* inside, const char* expect) {
  Dl_info info{};
  if (dladdr(inside, &info) == 0 || info.dli_sname == nullptr ||
      std::strstr(info.dli_sname, expect) == nullptr) {
    die("cannot name wrapper", expect);
  }
  void* next = dlsym(RTLD_NEXT, info.dli_sname);
  if (next == nullptr) die("no original for", info.dli_sname);
  return next;
}

template <class F>
F free_fn(void* inside, const char* expect) {
  return reinterpret_cast<F>(original(inside, expect));
}

/// Itanium C++ ABI: a pointer to a non-virtual member is {address, 0}.
template <class PMF>
PMF member_fn(void* inside, const char* expect) {
  struct {
    void* ptr;
    std::ptrdiff_t adj;
  } raw{original(inside, expect), 0};
  static_assert(sizeof(PMF) == sizeof(raw));
  PMF f;
  std::memcpy(static_cast<void*>(&f), &raw, sizeof f);
  return f;
}

void count(Counter c, double v) { add(g_counters[c], v); }

void on_trials(const Span& span, const mlck::sim::TrialStats& r) {
  if (!span.outermost()) return;
  count(kTrials, static_cast<double>(r.trials));
  count(kFailures, r.mean_failures * static_cast<double>(r.trials));
  count(kCappedTrials, static_cast<double>(r.capped_trials));
}

void on_optimize(const Span& span, const mlck::core::OptimizationResult& r) {
  if (!span.outermost()) return;
  count(kEvaluations, static_cast<double>(r.evaluations));
  count(kCoarseEvaluations, static_cast<double>(r.coarse_evaluations));
  count(kLatticePoints,
        static_cast<double>(r.coarse_evaluations + r.pruned_feasibility +
                            r.pruned_bound));
  count(kOptimizeNs, static_cast<double>(span.elapsed_ns()));
}

/// Writes the summary and span log; runs at process exit.
struct Writer {
  ~Writer() {
    const char* dir = std::getenv("PERFBENCH_TRACE_DIR");
    if (dir == nullptr || g_next_span.load() == 1) return;
    const std::string base =
        std::string(dir) + "/trace-" + std::to_string(::getpid());
    if (FILE* f = std::fopen((base + ".json").c_str(), "w")) {
      std::fprintf(f, "{\"pid\": %d, \"functions\": {", ::getpid());
      for (int k = 0; k < kFns; ++k) {
        const Totals& t = g_fn[k];
        std::fprintf(f,
                     "%s\n \"%s\": {\"layer\": \"%s\", \"calls\": %llu, "
                     "\"total_ns\": %llu, \"self_ns\": %llu, \"max_ns\": %llu}",
                     k == 0 ? "" : ",", kFnInfo[k].name,
                     kLayerNames[kFnInfo[k].layer],
                     static_cast<unsigned long long>(t.calls.load()),
                     static_cast<unsigned long long>(t.total_ns.load()),
                     static_cast<unsigned long long>(t.self_ns.load()),
                     static_cast<unsigned long long>(t.max_ns.load()));
      }
      std::fprintf(f, "},\n\"layers\": {");
      for (int k = 0; k < kLayers; ++k) {
        const Totals& t = g_layer[k];
        std::fprintf(f,
                     "%s\n \"%s\": {\"calls\": %llu, \"total_ns\": %llu, "
                     "\"self_ns\": %llu}",
                     k == 0 ? "" : ",", kLayerNames[k],
                     static_cast<unsigned long long>(t.calls.load()),
                     static_cast<unsigned long long>(t.total_ns.load()),
                     static_cast<unsigned long long>(t.self_ns.load()));
      }
      std::fprintf(f, "},\n\"counters\": {");
      for (int k = 0; k < kCounters; ++k) {
        std::fprintf(f, "%s\n \"%s\": %.17g", k == 0 ? "" : ",",
                     kCounterNames[k], g_counters[k].load());
      }
      std::fprintf(f, "},\n\"spans_dropped\": %llu}\n",
                   static_cast<unsigned long long>(g_spans_dropped.load()));
      std::fclose(f);
    }
    if (FILE* f = std::fopen((base + ".spans.jsonl").c_str(), "w")) {
      const std::lock_guard<std::mutex> lock(g_logs_mutex);
      for (ThreadLog* log : *g_logs) {
        const std::lock_guard<std::mutex> log_lock(log->mutex);
        for (const SpanRecord& s : log->spans) {
          std::fprintf(f,
                       "{\"id\":%llu,\"parent\":%llu,\"root\":%llu,"
                       "\"thread\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                       "\"end_ns\":%lld}\n",
                       static_cast<unsigned long long>(s.id),
                       static_cast<unsigned long long>(s.parent),
                       static_cast<unsigned long long>(s.root), s.thread,
                       kFnInfo[s.fn].name, static_cast<long long>(s.start_ns),
                       static_cast<long long>(s.end_ns));
        }
      }
      std::fclose(f);
    }
  }
};

Writer g_writer;

}  // namespace perfbench

// ------------------------------------------------------------- wrappers
//
// Each wrapper repeats the library declaration it replaces. A signature
// that drifts from the library stops being interposed; run.py checks
// after building that every wrapper symbol is defined by an mlck library.

using perfbench::Span;
using perfbench::here;

namespace mlck::sim {

TrialStats run_trials(const systems::SystemConfig& system,
                      const core::CheckpointPlan& plan, std::size_t trials,
                      std::uint64_t seed, const SimOptions& options,
                      util::ThreadPool* pool) {
  using F = TrialStats (*)(const systems::SystemConfig&,
                           const core::CheckpointPlan&, std::size_t,
                           std::uint64_t, const SimOptions&,
                           util::ThreadPool*);
  static const F real = perfbench::free_fn<F>(here(), "run_trials");
  Span span(perfbench::kRunTrialsPlan);
  TrialStats r = real(system, plan, trials, seed, options, pool);
  perfbench::on_trials(span, r);
  return r;
}

TrialStats run_trials(const systems::SystemConfig& system,
                      const core::IntervalSchedule& schedule,
                      std::size_t trials, std::uint64_t seed,
                      const SimOptions& options, util::ThreadPool* pool) {
  using F = TrialStats (*)(const systems::SystemConfig&,
                           const core::IntervalSchedule&, std::size_t,
                           std::uint64_t, const SimOptions&,
                           util::ThreadPool*);
  static const F real = perfbench::free_fn<F>(here(), "run_trials");
  Span span(perfbench::kRunTrialsInterval);
  TrialStats r = real(system, schedule, trials, seed, options, pool);
  perfbench::on_trials(span, r);
  return r;
}

TrialStats run_trials(const systems::SystemConfig& system,
                      const core::AdaptiveSchedule& schedule,
                      std::size_t trials, std::uint64_t seed,
                      const SimOptions& options, util::ThreadPool* pool) {
  using F = TrialStats (*)(const systems::SystemConfig&,
                           const core::AdaptiveSchedule&, std::size_t,
                           std::uint64_t, const SimOptions&,
                           util::ThreadPool*);
  static const F real = perfbench::free_fn<F>(here(), "run_trials");
  Span span(perfbench::kRunTrialsAdaptive);
  TrialStats r = real(system, schedule, trials, seed, options, pool);
  perfbench::on_trials(span, r);
  return r;
}

TrialStats run_trials_with_distribution(
    const systems::SystemConfig& system, const core::CheckpointPlan& plan,
    const math::FailureDistribution& interarrival, std::size_t trials,
    std::uint64_t seed, const SimOptions& options, util::ThreadPool* pool) {
  using F = TrialStats (*)(const systems::SystemConfig&,
                           const core::CheckpointPlan&,
                           const math::FailureDistribution&, std::size_t,
                           std::uint64_t, const SimOptions&,
                           util::ThreadPool*);
  static const F real =
      perfbench::free_fn<F>(here(), "run_trials_with_distribution");
  Span span(perfbench::kRunTrialsDist);
  TrialStats r = real(system, plan, interarrival, trials, seed, options, pool);
  perfbench::on_trials(span, r);
  return r;
}

}  // namespace mlck::sim

#define PERFBENCH_SELECT(Class, fn)                                        \
  core::TechniqueResult Class::do_select_plan(                            \
      const systems::SystemConfig& system, util::ThreadPool* pool) const { \
    using F = core::TechniqueResult (Class::*)(                            \
        const systems::SystemConfig&, util::ThreadPool*) const;           \
    static const F real =                                                  \
        perfbench::member_fn<F>(here(), "do_select_plan");                 \
    Span span(fn);                                                         \
    return (this->*real)(system, pool);                                    \
  }

namespace mlck::core {
PERFBENCH_SELECT(DauweTechnique, perfbench::kSelectDauwe)

OptimizationResult optimize_intervals(const ExecutionTimeModel& model,
                                      const systems::SystemConfig& system,
                                      const OptimizerOptions& options,
                                      util::ThreadPool* pool) {
  using F = OptimizationResult (*)(const ExecutionTimeModel&,
                                   const systems::SystemConfig&,
                                   const OptimizerOptions&, util::ThreadPool*);
  static const F real = perfbench::free_fn<F>(here(), "optimize_intervals");
  Span span(perfbench::kOptimizeIntervals);
  OptimizationResult r = real(model, system, options, pool);
  perfbench::on_optimize(span, r);
  return r;
}

OptimizationResult optimize_intervals_with(
    const SubsetEvaluatorFactory& factory, const systems::SystemConfig& system,
    const OptimizerOptions& options, util::ThreadPool* pool) {
  using F = OptimizationResult (*)(const SubsetEvaluatorFactory&,
                                   const systems::SystemConfig&,
                                   const OptimizerOptions&, util::ThreadPool*);
  static const F real =
      perfbench::free_fn<F>(here(), "optimize_intervals_with");
  Span span(perfbench::kOptimizeIntervalsWith);
  OptimizationResult r = real(factory, system, options, pool);
  perfbench::on_optimize(span, r);
  return r;
}

OptimizationResult optimize_intervals_staged(
    const SubsetKernelFactory& factory, const systems::SystemConfig& system,
    const OptimizerOptions& options, util::ThreadPool* pool) {
  using F = OptimizationResult (*)(const SubsetKernelFactory&,
                                   const systems::SystemConfig&,
                                   const OptimizerOptions&, util::ThreadPool*);
  static const F real =
      perfbench::free_fn<F>(here(), "optimize_intervals_staged");
  Span span(perfbench::kOptimizeIntervalsStaged);
  OptimizationResult r = real(factory, system, options, pool);
  perfbench::on_optimize(span, r);
  return r;
}
}  // namespace mlck::core

namespace mlck::models {
PERFBENCH_SELECT(MoodyTechnique, perfbench::kSelectMoody)
PERFBENCH_SELECT(DiTechnique, perfbench::kSelectDi)
PERFBENCH_SELECT(BenoitTechnique, perfbench::kSelectBenoit)
PERFBENCH_SELECT(DalyTechnique, perfbench::kSelectDaly)
PERFBENCH_SELECT(YoungTechnique, perfbench::kSelectYoung)
}  // namespace mlck::models

namespace mlck::engine {

core::OptimizationResult EvaluationEngine::optimize(
    const core::OptimizerOptions& options, util::ThreadPool* pool) const {
  using F = core::OptimizationResult (EvaluationEngine::*)(
      const core::OptimizerOptions&, util::ThreadPool*) const;
  static const F real = perfbench::member_fn<F>(here(), "optimize");
  Span span(perfbench::kEngineOptimize);
  return (this->*real)(options, pool);
}

core::Prediction EvaluationEngine::predict(
    const core::CheckpointPlan& plan) const {
  using F = core::Prediction (EvaluationEngine::*)(const core::CheckpointPlan&)
      const;
  static const F real = perfbench::member_fn<F>(here(), "predict");
  Span span(perfbench::kEnginePredict);
  return (this->*real)(plan);
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, util::ThreadPool* pool,
                             obs::MetricsRegistry* metrics,
                             obs::TraceSink* trace) {
  using F = ScenarioOutcome (*)(const ScenarioSpec&, util::ThreadPool*,
                                obs::MetricsRegistry*, obs::TraceSink*);
  static const F real = perfbench::free_fn<F>(here(), "run_scenario");
  Span span(perfbench::kEngineRunScenario);
  return real(spec, pool, metrics, trace);
}

std::shared_ptr<const math::FailureLaw> DistributionSpec::family() const {
  using F = std::shared_ptr<const math::FailureLaw> (DistributionSpec::*)()
      const;
  static const F real = perfbench::member_fn<F>(here(), "family");
  Span span(perfbench::kLawFamily);
  return (this->*real)();
}

}  // namespace mlck::engine

namespace mlck::exp {

ScenarioResult run_scenario(
    const systems::SystemConfig& system, const std::string& label,
    const std::vector<std::unique_ptr<core::Technique>>& techniques,
    const ExperimentOptions& options) {
  using F = ScenarioResult (*)(
      const systems::SystemConfig&, const std::string&,
      const std::vector<std::unique_ptr<core::Technique>>&,
      const ExperimentOptions&);
  static const F real = perfbench::free_fn<F>(here(), "run_scenario");
  Span span(perfbench::kExpRunScenario);
  return real(system, label, techniques, options);
}

TechniqueOutcome evaluate_technique(const core::Technique& technique,
                                    const systems::SystemConfig& system,
                                    const ExperimentOptions& options) {
  using F = TechniqueOutcome (*)(const core::Technique&,
                                 const systems::SystemConfig&,
                                 const ExperimentOptions&);
  static const F real = perfbench::free_fn<F>(here(), "evaluate_technique");
  Span span(perfbench::kExpEvaluateTechnique);
  return real(technique, system, options);
}

}  // namespace mlck::exp

namespace mlck::serve {

util::Json evaluate(const Request& request, util::ThreadPool* pool,
                    obs::MetricsRegistry* registry) {
  using F = util::Json (*)(const Request&, util::ThreadPool*,
                           obs::MetricsRegistry*);
  static const F real = perfbench::free_fn<F>(here(), "evaluate");
  std::uint64_t ns = 0;
  util::Json r;
  {
    Span span(perfbench::kServeEvaluate);
    r = real(request, pool, registry);
    ns = span.elapsed_ns();
  }
  const auto d = static_cast<double>(ns);
  switch (request.op) {
    case Op::kOptimize:
      perfbench::count(perfbench::kEvalOptimizeCalls, 1);
      perfbench::count(perfbench::kEvalOptimizeNs, d);
      break;
    case Op::kPredict:
      perfbench::count(perfbench::kEvalPredictCalls, 1);
      perfbench::count(perfbench::kEvalPredictNs, d);
      break;
    case Op::kScenario:
      perfbench::count(perfbench::kEvalScenarioCalls, 1);
      perfbench::count(perfbench::kEvalScenarioNs, d);
      break;
    default:
      break;
  }
  if (request.spec.distribution.kind !=
      engine::DistributionSpec::Kind::kExponential) {
    perfbench::count(perfbench::kEvalNonExpNs, d);
  }
  return r;
}

Request Request::parse(const util::Json& doc) {
  using F = Request (*)(const util::Json&);
  static const F real = perfbench::free_fn<F>(here(), "parse");
  Span span(perfbench::kRequestParse);
  return real(doc);
}

std::string Request::canonical_key() const {
  using F = std::string (Request::*)() const;
  static const F real = perfbench::member_fn<F>(here(), "canonical_key");
  Span span(perfbench::kCanonicalKey);
  return (this->*real)();
}

std::optional<std::string> PlanCache::get(const std::string& key) {
  using F = std::optional<std::string> (PlanCache::*)(const std::string&);
  static const F real = perfbench::member_fn<F>(here(), "get");
  Span span(perfbench::kCacheGet);
  return (this->*real)(key);
}

void PlanCache::put(const std::string& key, std::string value) {
  using F = void (PlanCache::*)(const std::string&, std::string);
  static const F real = perfbench::member_fn<F>(here(), "put");
  Span span(perfbench::kCachePut);
  (this->*real)(key, std::move(value));
}

std::string ok_response(const util::Json& id, util::Json result) {
  using F = std::string (*)(const util::Json&, util::Json);
  static const F real = perfbench::free_fn<F>(here(), "ok_response");
  Span span(perfbench::kOkResponse);
  return real(id, std::move(result));
}

}  // namespace mlck::serve

namespace mlck::util {

Json Json::parse(std::string_view text) {
  using F = Json (*)(std::string_view);
  static const F real = perfbench::free_fn<F>(here(), "parse");
  Span span(perfbench::kJsonParse);
  return real(text);
}

void ThreadPool::submit(std::function<void()> task) {
  using F = void (ThreadPool::*)(std::function<void()>);
  static const F real = perfbench::member_fn<F>(here(), "submit");
  Span span(perfbench::kPoolSubmit);
  (this->*real)(std::move(task));
}

void ThreadPool::wait_idle() {
  using F = void (ThreadPool::*)();
  static const F real = perfbench::member_fn<F>(here(), "wait_idle");
  Span span(perfbench::kPoolWaitIdle);
  (this->*real)();
}

}  // namespace mlck::util
