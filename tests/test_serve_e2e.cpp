// End-to-end contract tests for mlckd: concurrent clients drive the
// daemon across the seven Table I example systems and all three failure
// laws, and every response must be byte-identical to the direct
// serve::evaluate path — cold, cache-warm, coalesced, or mid-drain.
// Also covers graceful shutdown (no dropped waiters, named rejection of
// new admissions) and the `mlck serve` / `--connect` CLI round trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/commands.h"
#include "core/serialize.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "serve/request.h"
#include "serve/server.h"
#include "systems/system_config.h"
#include "util/json.h"
#include "util/socket.h"

namespace mlck {
namespace {

using util::Json;

std::string test_socket(const char* tag) {
  return "/tmp/mlck_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// Table I coverage: the paper's two reference systems plus a spread of
/// the D-series scaling points.
const char* kSystems[] = {"B", "M", "D1", "D3", "D5", "D7", "D9"};

std::string failure_json(int law) {
  switch (law) {
    case 0: return "{\"law\":\"exponential\"}";
    case 1: return "{\"law\":\"weibull\",\"shape\":0.7}";
    default: return "{\"law\":\"lognormal\",\"sigma\":1.0}";
  }
}

/// Small sweep so 21 optimizer runs stay fast on one core; identity, not
/// plan quality, is under test.
const char* kOptimizer =
    "{\"coarse_tau_points\":16,\"max_count\":8,\"refine_rounds\":8}";

/// Builds the 7 x 3 request matrix, cycling the op so optimize, predict,
/// and scenario each cover every failure law and most systems.
std::vector<std::string> contract_requests() {
  std::vector<std::string> requests;
  int id = 0;
  for (std::size_t s = 0; s < std::size(kSystems); ++s) {
    for (int law = 0; law < 3; ++law) {
      const std::string system = kSystems[s];
      const std::string failure = failure_json(law);
      std::string body;
      switch ((static_cast<int>(s) + law) % 3) {
        case 0:
          body = "{\"op\":\"optimize\",\"id\":" + std::to_string(id) +
                 ",\"system\":\"" + system + "\",\"failure\":" + failure +
                 ",\"optimizer\":" + kOptimizer + "}";
          break;
        case 1:
          // levels=[0] counts=[] is valid for every system.
          body = "{\"op\":\"predict\",\"id\":" + std::to_string(id) +
                 ",\"system\":\"" + system + "\",\"failure\":" + failure +
                 ",\"plan\":{\"tau0\":60.0,\"levels\":[0],\"counts\":[]}}";
          break;
        default:
          body = "{\"op\":\"scenario\",\"id\":" + std::to_string(id) +
                 ",\"spec\":{\"system\":\"" + system +
                 "\",\"failure\":" + failure +
                 ",\"optimizer\":" + kOptimizer +
                 ",\"trials\":40,\"seed\":7}}";
          break;
      }
      requests.push_back(std::move(body));
      ++id;
    }
  }
  return requests;
}

/// The contract's right-hand side: what the daemon must answer, computed
/// without the daemon.
std::string direct_response(const std::string& request_text) {
  const serve::Request request =
      serve::Request::parse(Json::parse(request_text));
  return serve::ok_response(request.id, serve::evaluate(request));
}

TEST(ServeE2E, ConcurrentClientsMatchDirectEvaluationByteForByte) {
  const std::vector<std::string> requests = contract_requests();
  std::vector<std::string> expected(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expected[i] = direct_response(requests[i]);
  }

  obs::MetricsRegistry registry;
  serve::ServerOptions options;
  options.socket_path = test_socket("e2e");
  options.threads = 1;
  options.registry = &registry;
  serve::Server server(options);

  // Cold phase: every request is sent twice, drawn from a shared work
  // list by 8 concurrent clients — duplicates either coalesce onto the
  // running job or hit the cache, and must be byte-identical either way.
  constexpr std::size_t kClients = 8;
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    work.push_back(i);
    work.push_back(i);
  }
  std::vector<std::string> responses(work.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      serve::Client client(options.socket_path);
      for (std::size_t task = next.fetch_add(1); task < work.size();
           task = next.fetch_add(1)) {
        responses[task] = client.call_raw(requests[work[task]]);
      }
    });
  }
  for (auto& thread : clients) thread.join();
  for (std::size_t task = 0; task < work.size(); ++task) {
    SCOPED_TRACE("request " + requests[work[task]]);
    EXPECT_EQ(responses[task], expected[work[task]]);
  }

  // Warm phase: everything is cached now; replies must replay the cold
  // bytes exactly.
  {
    serve::Client client(options.socket_path);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("warm request " + requests[i]);
      EXPECT_EQ(client.call_raw(requests[i]), expected[i]);
    }
  }
  EXPECT_GE(registry.counter("serve.plan_cache.hits").value() +
                registry.counter("serve.coalesced").value(),
            requests.size());  // dups + warm pass never recompute
  EXPECT_LE(registry.counter("serve.jobs_executed").value(),
            requests.size());
  server.stop();
}

TEST(ServeE2E, InfiniteExpectedTimeAnswersParseAndSurviveACacheHit) {
  // A single-level plan on D9 with tau0 far above the MTBF has an
  // infinite expected time. Its answer must still be JSON, and the
  // second (cache-hit) request re-parses the cached bytes — that used to
  // throw outside any handler and terminate the daemon.
  serve::ServerOptions options;
  options.socket_path = test_socket("inf");
  options.threads = 1;
  serve::Server server(options);
  const std::string request =
      "{\"op\":\"predict\",\"system\":\"D9\","
      "\"plan\":{\"tau0\":33,\"levels\":[0],\"counts\":[]}}";
  serve::Client client(options.socket_path);
  const std::string first = client.call_raw(request);
  const std::string second = client.call_raw(request);
  for (const std::string& answer : {first, second}) {
    SCOPED_TRACE(answer);
    Json doc;
    ASSERT_NO_THROW(doc = Json::parse(answer));
    EXPECT_TRUE(doc.at("ok").as_bool());
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, direct_response(request));
  const Json pong = Json::parse(client.call_raw("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  server.stop();
}

TEST(ServeE2E, OutOfRangeIntegerFieldsAreBadRequests) {
  serve::ServerOptions options;
  options.socket_path = test_socket("int");
  options.threads = 1;
  serve::Server server(options);
  serve::Client client(options.socket_path);
  const std::pair<const char*, std::string> cases[] = {
      {"coarse_tau_points",
       "{\"op\":\"optimize\",\"system\":\"M\","
       "\"optimizer\":{\"coarse_tau_points\":1e300}}"},
      {"levels",
       "{\"op\":\"predict\",\"system\":\"M\","
       "\"plan\":{\"tau0\":60,\"levels\":[1e20],\"counts\":[]}}"},
      {"trials",
       "{\"op\":\"scenario\",\"spec\":{\"system\":\"M\","
       "\"trials\":-1}}"},
  };
  for (const auto& [key, request] : cases) {
    SCOPED_TRACE(request);
    const Json answer = Json::parse(client.call_raw(request));
    EXPECT_FALSE(answer.at("ok").as_bool());
    EXPECT_EQ(answer.at("error").at("code").as_string(), "bad_request");
    EXPECT_NE(answer.at("error").at("message").as_string().find(key),
              std::string::npos);
  }
  const Json pong = Json::parse(client.call_raw("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  server.stop();
}

TEST(ServeE2E, TooDeepInlineSystemIsABadRequest) {
  // An inline system one level deeper than systems::kMaxLevels used to
  // reach the models' fixed-size stage arrays and crash the daemon; it
  // must be refused by name, and the daemon must keep serving.
  std::string severity;
  std::string cost;
  for (int k = 0; k <= systems::kMaxLevels; ++k) {
    if (k > 0) {
      severity += ',';
      cost += ',';
    }
    severity += "0.0588235294117647";
    cost += std::to_string(0.5 + k);
  }
  const std::string system =
      "{\"name\":\"L17\",\"mtbf\":100,\"severity_probability\":[" +
      severity + "],\"checkpoint_cost\":[" + cost +
      "],\"base_time\":1000}";
  serve::ServerOptions options;
  options.socket_path = test_socket("deep");
  options.threads = 1;
  serve::Server server(options);
  serve::Client client(options.socket_path);
  const std::string requests[] = {
      "{\"op\":\"optimize\",\"system\":" + system + "}",
      "{\"op\":\"predict\",\"system\":" + system +
          ",\"plan\":{\"tau0\":60,\"levels\":[0],\"counts\":[]}}",
      "{\"op\":\"scenario\",\"spec\":{\"system\":" + system +
          ",\"model\":\"moody\",\"trials\":4}}",
  };
  for (const std::string& request : requests) {
    SCOPED_TRACE(request);
    const Json answer = Json::parse(client.call_raw(request));
    EXPECT_FALSE(answer.at("ok").as_bool());
    EXPECT_EQ(answer.at("error").at("code").as_string(), "bad_request");
    EXPECT_NE(answer.at("error").at("message").as_string().find("kMaxLevels"),
              std::string::npos);
  }
  const Json pong = Json::parse(client.call_raw("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  server.stop();
}

TEST(ServeE2E, DrainAnswersInFlightWorkAndRejectsNewAdmissions) {
  obs::MetricsRegistry registry;
  serve::ServerOptions options;
  options.socket_path = test_socket("drain");
  options.threads = 1;
  options.registry = &registry;
  serve::Server server(options);

  // A deliberately wide sweep so the job is still running when the drain
  // starts (the assertions hold either way — no timing dependence).
  const std::string long_request =
      "{\"op\":\"optimize\",\"id\":\"inflight\",\"system\":\"D9\","
      "\"optimizer\":{\"coarse_tau_points\":48,\"max_count\":32,"
      "\"refine_rounds\":16}}";
  std::string long_response;
  std::thread waiter([&] {
    serve::Client client(options.socket_path);
    long_response = client.call_raw(long_request);
  });

  // Admission is observable: the queue high-water mark moves when the
  // job is enqueued.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (registry.gauge("serve.queue_depth_high_water").value() < 1.0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "compute request was never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  server.request_stop();
  EXPECT_TRUE(server.draining());

  // New compute admissions now fail with the named error; control ops
  // still answer.
  {
    serve::Client client(options.socket_path);
    const Json rejected = Json::parse(client.call_raw(
        "{\"op\":\"optimize\",\"id\":\"late\",\"system\":\"M\"}"));
    EXPECT_FALSE(rejected.at("ok").as_bool());
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "shutting_down");
    EXPECT_EQ(rejected.at("id").as_string(), "late");
    const Json pong = Json::parse(client.call_raw("{\"op\":\"ping\"}"));
    EXPECT_TRUE(pong.at("ok").as_bool());
  }

  // The in-flight waiter is not dropped, and its answer still honors the
  // bit-identity contract.
  waiter.join();
  EXPECT_EQ(long_response, direct_response(long_request));

  // Cache hits bypass admission entirely, so a repeat of the drained
  // job's request is served even while shutting down.
  {
    serve::Client client(options.socket_path);
    EXPECT_EQ(client.call_raw(long_request), long_response);
  }
  EXPECT_EQ(registry.counter("serve.rejected_draining").value(), 1u);
  server.stop();  // must not deadlock; double stop must be harmless
  server.stop();
}

TEST(ServeE2E, ShutdownOpSignalsTheStopEventAndDrains) {
  serve::ServerOptions options;
  options.socket_path = test_socket("shutop");
  options.threads = 1;
  serve::Server server(options);

  serve::Client client(options.socket_path);
  const Json response =
      Json::parse(client.call_raw("{\"id\":9,\"op\":\"shutdown\"}"));
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("result").at("stopping").as_bool());
  EXPECT_EQ(response.at("id").as_number(), 9.0);

  // The owning loop's wakeup fires, and the server reports draining.
  EXPECT_TRUE(util::wait_readable(server.stop_event_fd(), 5000));
  EXPECT_TRUE(server.draining());
  server.stop();
}

/// Joins the daemon thread even when an assertion or exception unwinds
/// the test body early: best-effort `shutdown` op first so the join
/// cannot hang, then join — a failing test reports as a failure instead
/// of std::terminate on a joinable thread.
struct DaemonGuard {
  std::thread thread;
  std::string socket;

  ~DaemonGuard() {
    if (!thread.joinable()) return;
    try {
      serve::Client client(socket);
      (void)client.call_raw("{\"op\":\"shutdown\"}");
    } catch (const std::exception&) {
      // Daemon already stopping (or never bound); the join settles it.
    }
    thread.join();
  }
};

TEST(ServeE2E, CliServeRoundTripsThinClientsAndStopsCleanly) {
  const std::string socket = test_socket("cli");
  std::ostringstream serve_out, serve_err;
  int serve_code = -1;
  DaemonGuard daemon{std::thread([&] {
                       serve_code = app::run_command(
                           {"serve", "--socket=" + socket}, serve_out,
                           serve_err);
                     }),
                     socket};

  // Wait for the daemon to bind.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    try {
      util::Fd probe = util::unix_connect(socket);
      break;
    } catch (const std::exception&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "daemon never started listening";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Thin-client optimize through the daemon vs the same command computed
  // locally: the written plan artifacts must be byte-identical.
  const std::string remote_plan =
      "/tmp/mlck_" + std::to_string(::getpid()) + "_remote_plan.json";
  const std::string local_plan =
      "/tmp/mlck_" + std::to_string(::getpid()) + "_local_plan.json";
  std::ostringstream remote_out, remote_err;
  const int remote_code = app::run_command(
      {"optimize", "--system=M", "--connect=" + socket,
       "--out=" + remote_plan},
      remote_out, remote_err);
  EXPECT_EQ(remote_code, 0) << remote_err.str();
  EXPECT_NE(remote_out.str().find("served by"), std::string::npos);

  std::ostringstream local_out, local_err;
  ASSERT_EQ(app::run_command({"optimize", "--system=M",
                              "--out=" + local_plan},
                             local_out, local_err),
            0)
      << local_err.str();
  EXPECT_EQ(core::read_file(remote_plan), core::read_file(local_plan));
  ::unlink(remote_plan.c_str());
  ::unlink(local_plan.c_str());

  // A client shutdown op takes the whole daemon down: exit 0, telemetry
  // epilogue printed, socket file removed.
  {
    serve::Client client(socket);
    const Json response = Json::parse(client.call_raw("{\"op\":\"shutdown\"}"));
    EXPECT_TRUE(response.at("ok").as_bool());
  }
  daemon.thread.join();
  EXPECT_EQ(serve_code, 0) << serve_err.str();
  EXPECT_NE(serve_out.str().find("mlckd listening on " + socket),
            std::string::npos);
  EXPECT_NE(serve_out.str().find("mlckd stopped"), std::string::npos);
  EXPECT_NE(::access(socket.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace mlck
