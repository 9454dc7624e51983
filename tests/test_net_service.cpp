// Integration tests for the TCP prediction service (net/server.h, client.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hmm/kernel.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "predictors/hmm_session.h"
#include "predictors/predictor.h"

namespace cs2p {
namespace {

/// Deterministic in-process model: initial = 2.0, forecast = last + 1.
class EchoPlusOneModel final : public PredictorModel {
 public:
  std::string name() const override { return "EchoPlusOne"; }
  std::unique_ptr<SessionPredictor> make_session(const SessionContext&) const override {
    class S final : public SessionPredictor {
     public:
      std::optional<double> predict_initial() const override { return 2.0; }
      double predict(unsigned steps) const override {
        return last_ + static_cast<double>(steps);
      }
      void observe(double w) override { last_ = w; }

     private:
      double last_ = 0.0;
    };
    return std::make_unique<S>();
  }
};

SessionFeatures features() {
  return {"ISP0", "AS0", "P0", "C0", "S0", "Pfx0"};
}

/// HMM-backed model whose sessions share one SoA kernel — the shape that
/// makes the server's per-poll batch path (DESIGN.md §16) engage.
class SharedKernelHmmModel final : public PredictorModel {
 public:
  SharedKernelHmmModel()
      : kernel_(HmmKernel::create(
            GaussianHmm{{0.6, 0.4},
                        Matrix{{0.9, 0.1}, {0.2, 0.8}},
                        {{1.0, 0.1}, {5.0, 0.5}}})) {}
  std::string name() const override { return "SharedKernelHmm"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext&) const override {
    return std::make_unique<HmmSessionPredictor>(kernel_, 2.0);
  }

 private:
  std::shared_ptr<const HmmKernel> kernel_;
};

TEST(PredictionService, HelloObservePredictBye) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());

  const SessionResponse session = client.hello(features(), 10.0);
  EXPECT_GT(session.session_id, 0u);
  EXPECT_DOUBLE_EQ(session.initial_mbps, 2.0);

  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 5.0), 6.0);
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 7.0), 8.0);
  EXPECT_DOUBLE_EQ(client.predict(session.session_id, 3), 10.0);
  EXPECT_NO_THROW(client.bye(session.session_id));
}

TEST(PredictionService, UnknownSessionIsAnError) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  EXPECT_THROW(client.observe(424242, 1.0), std::runtime_error);
  EXPECT_THROW(client.predict(424242, 1), std::runtime_error);
}

TEST(PredictionService, ByeInvalidatesSession) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const SessionResponse session = client.hello(features(), 1.0);
  client.bye(session.session_id);
  EXPECT_THROW(client.observe(session.session_id, 1.0), std::runtime_error);
}

TEST(PredictionService, ZeroStepsAheadIsAnError) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const SessionResponse session = client.hello(features(), 1.0);
  EXPECT_THROW(client.predict(session.session_id, 0), std::runtime_error);
}

TEST(PredictionService, MultipleSessionsAreIsolated) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const auto a = client.hello(features(), 1.0);
  const auto b = client.hello(features(), 2.0);
  EXPECT_NE(a.session_id, b.session_id);
  client.observe(a.session_id, 10.0);
  client.observe(b.session_id, 20.0);
  EXPECT_DOUBLE_EQ(client.predict(a.session_id, 1), 11.0);
  EXPECT_DOUBLE_EQ(client.predict(b.session_id, 1), 21.0);
}

// OBSERVE/PREDICT on kernel-backed sessions are served through the round's
// session pass and show up in its telemetry — the end-to-end proof that
// per-poll rounds are live, not just unit-tested.
TEST(PredictionService, HmmSessionsServeThroughSessionPass) {
  PredictionServer server(std::make_shared<SharedKernelHmmModel>());
  PredictionClient client(server.port());
  const auto a = client.hello(features(), 0.0);
  const auto b = client.hello(features(), 0.0);
  EXPECT_DOUBLE_EQ(client.observe(a.session_id, 1.0), 1.0);  // MLE state 0
  EXPECT_DOUBLE_EQ(client.observe(b.session_id, 5.0), 5.0);  // MLE state 1
  EXPECT_DOUBLE_EQ(client.predict(a.session_id, 1), 1.0);

  const StatsResponse stats = client.stats();
  EXPECT_NE(stats.exposition.find("cs2p_server_batch_size"),
            std::string::npos);
  client.bye(a.session_id);
  client.bye(b.session_id);
}

/// Forecast = sum of every observation + steps: any lost or re-read
/// observation shows in the next reply.
class RunningSumModel final : public PredictorModel {
 public:
  class Predictor final : public SessionPredictor {
   public:
    double predict(unsigned steps) const override {
      return sum_ + static_cast<double>(steps);
    }
    void observe(double w) override { sum_ += w; }

   private:
    double sum_ = 0.0;
  };
  std::string name() const override { return "RunningSum"; }
  std::unique_ptr<SessionPredictor> make_session(const SessionContext&) const override {
    return std::make_unique<Predictor>();
  }
};

double raw_prediction_reply(const FdHandle& fd) {
  if (!wait_readable(fd, 5000)) throw std::runtime_error("no reply within 5 s");
  const auto payload = recv_frame(fd);
  if (!payload) throw std::runtime_error("connection closed");
  return std::get<PredictionResponse>(parse_response(*payload)).mbps;
}

// One session driven over two connections whose OBSERVEs land in the same
// poll round: the second frame must see the first one's observation (a
// sub-round), exactly like a scalar twin fed both samples in order.
TEST(PredictionService, DuplicateSessionInOneRoundChainsObservations) {
  // The BYE of a gate session parks the only worker inside the completion
  // hook while both OBSERVEs are written, so one poll wakeup reads both.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> gated{false};
  ServerConfig config;
  config.io_threads = 1;
  config.on_session_complete = [&](CompletedSession&&) {
    if (gated.exchange(true)) return;
    entered.set_value();
    released.wait();
  };
  PredictionServer server(std::make_shared<RunningSumModel>(), config);
  PredictionClient client(server.port());
  const auto gate = client.hello(features(), 0.0);
  const auto session = client.hello(features(), 0.0);

  FdHandle conn_a = connect_loopback(server.port());
  FdHandle conn_b = connect_loopback(server.port());
  // A first round trip on each makes sure the worker owns both connections.
  send_frame(conn_a, serialize_request(PredictRequest{session.session_id, 1}));
  send_frame(conn_b, serialize_request(PredictRequest{session.session_id, 1}));
  EXPECT_EQ(raw_prediction_reply(conn_a), 1.0);
  EXPECT_EQ(raw_prediction_reply(conn_b), 1.0);

  std::thread bye([&] { client.bye(gate.session_id); });
  entered.get_future().wait();
  constexpr double kSampleA = 1.0;
  constexpr double kSampleB = 10.0;
  send_frame(conn_a,
             serialize_request(ObserveRequest{session.session_id, kSampleA}));
  send_frame(conn_b,
             serialize_request(ObserveRequest{session.session_id, kSampleB}));
  release.set_value();
  bye.join();
  const double reply_a = raw_prediction_reply(conn_a);
  const double reply_b = raw_prediction_reply(conn_b);

  // The round serves its frames in connection order, which the test does not
  // control; the twin takes whichever order the replies say was served.
  const bool a_first = reply_a < reply_b;
  RunningSumModel::Predictor twin;
  twin.observe(a_first ? kSampleA : kSampleB);
  EXPECT_EQ(a_first ? reply_a : reply_b, twin.predict(1));
  twin.observe(a_first ? kSampleB : kSampleA);
  EXPECT_EQ(a_first ? reply_b : reply_a, twin.predict(1));
  EXPECT_EQ(client.predict(session.session_id, 1), twin.predict(1));
}

TEST(PredictionService, ConcurrentClients) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  constexpr int kClients = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &failures, c] {
      try {
        PredictionClient client(server.port());
        const auto session = client.hello(features(), static_cast<double>(c));
        for (int r = 0; r < kRounds; ++r) {
          const double forecast = client.observe(session.session_id, c + r);
          if (forecast != c + r + 1.0) ++failures;
        }
        client.bye(session.session_id);
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.requests_handled(),
            static_cast<std::uint64_t>(kClients * (kRounds + 2)));
}

TEST(PredictionService, RemoteSessionPredictorAdapter) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  RemoteSessionPredictor predictor(client, features(), 9.0);
  EXPECT_DOUBLE_EQ(predictor.predict_initial().value(), 2.0);
  EXPECT_DOUBLE_EQ(predictor.predict(1), 2.0);  // cold: initial value
  predictor.observe(4.0);
  EXPECT_DOUBLE_EQ(predictor.predict(1), 5.0);   // cached from OBSERVE
  EXPECT_DOUBLE_EQ(predictor.predict(3), 7.0);   // extra round trip
}

TEST(PredictionService, ModelDownloadUnsupportedByGenericModel) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  EXPECT_THROW(client.download_model(features(), 1.0), std::runtime_error);
}

TEST(PredictionService, ServerStopsCleanly) {
  auto server = std::make_unique<PredictionServer>(
      std::make_shared<EchoPlusOneModel>());
  const std::uint16_t port = server->port();
  PredictionClient client(port);
  const auto session = client.hello(features(), 1.0);
  (void)session;
  server->stop();
  // A second stop must be harmless; destruction too.
  server->stop();
  server.reset();
  SUCCEED();
}

TEST(PredictionService, NullModelThrows) {
  EXPECT_THROW(PredictionServer(nullptr), std::invalid_argument);
}

// -- Robustness: validation, caps, timeouts, eviction -----------------------

TEST(PredictionService, InvalidSamplesRejectedWithTypedError) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0,
                           1e9}) {
    try {
      client.observe(session.session_id, bad);
      FAIL() << "sample " << bad << " should have been rejected";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kInvalidSample);
    }
  }
  // The predictor state was never touched: a good sample still works.
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 5.0), 6.0);
}

TEST(PredictionService, UnknownSessionCarriesTypedCode) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  try {
    client.observe(424242, 1.0);
    FAIL() << "expected UNKNOWN_SESSION";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kUnknownSession);
  }
}

TEST(PredictionService, ConnectionCapRejectsCleanly) {
  ServerConfig config;
  config.max_connections = 2;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);

  PredictionClient a(server.port()), b(server.port()), c(server.port());
  const auto sa = a.hello(features(), 1.0);
  const auto sb = b.hello(features(), 2.0);
  try {
    c.hello(features(), 3.0);
    FAIL() << "expected OVERLOADED rejection";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kOverloaded);
  }
  EXPECT_GE(server.connections_rejected(), 1u);
  // Existing connections are unaffected by the rejection.
  EXPECT_DOUBLE_EQ(a.observe(sa.session_id, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(b.observe(sb.session_id, 2.0), 3.0);
}

TEST(PredictionService, IdleConnectionReclaimedAndClientReconnects) {
  ServerConfig config;
  config.idle_timeout_ms = 50;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);
  // Let the server reap the idle connection, then keep using the session:
  // the client reconnects transparently and the session table still holds
  // our state (idle timeout kills connections, not sessions).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 7.0), 8.0);
  EXPECT_GE(client.reconnects(), 1u);
}

TEST(PredictionService, AbandonedSessionsEvictedByTtl) {
  ServerConfig config;
  config.session_ttl_ms = 80;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  {
    PredictionClient client(server.port());
    (void)client.hello(features(), 1.0);
    EXPECT_EQ(server.session_count(), 1u);
    // Client vanishes without BYE.
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.session_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_GE(server.sessions_evicted(), 1u);
}

TEST(PredictionService, ServerRestartHealsViaHelloReplay) {
  auto model = std::make_shared<EchoPlusOneModel>();
  auto server = std::make_unique<PredictionServer>(model);
  const std::uint16_t port = server->port();

  PredictionClient client(port);
  const auto session = client.hello(features(), 1.0);
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 3.0), 4.0);

  // Restart the server on the same port: all session state is lost.
  server.reset();
  server = std::make_unique<PredictionServer>(model, port);

  // The client reconnects, gets UNKNOWN_SESSION, replays HELLO, and the
  // original handle keeps working against the re-established session.
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 5.0), 6.0);
  EXPECT_GE(client.sessions_reestablished(), 1u);
  EXPECT_GE(client.reconnects(), 1u);
}

// -- Serve-flags plumbing (protocol v2) --------------------------------------

/// Sessions degrade after observing a sample below 0.5 and recover above it;
/// while degraded they report the guardrail flag bits. Mirrors the shape of
/// GuardedSessionPredictor with a trivially controllable switch.
class SwitchableModel final : public PredictorModel {
 public:
  std::string name() const override { return "Switchable"; }
  std::unique_ptr<SessionPredictor> make_session(const SessionContext&) const override {
    class S final : public SessionPredictor {
     public:
      std::optional<double> predict_initial() const override { return 2.0; }
      double predict(unsigned) const override { return degraded_ ? 0.25 : last_; }
      void observe(double w) override {
        last_ = w;
        degraded_ = w < 0.5;
      }
      bool degraded() const override { return degraded_; }
      std::uint8_t serve_flags() const override {
        return degraded_ ? (serve_flags::kDegraded | serve_flags::kGuardrailTripped)
                         : serve_flags::kPrimary;
      }

     private:
      double last_ = 0.0;
      bool degraded_ = false;
    };
    return std::make_unique<S>();
  }
};

TEST(PredictionService, ServeFlagsTravelToClient) {
  PredictionServer server(std::make_shared<SwitchableModel>());
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);

  // Healthy: PRED carries primary flags and the counter stays at zero.
  const PredictionResponse healthy = client.observe_response(session.session_id, 3.0);
  EXPECT_EQ(healthy.flags, serve_flags::kPrimary);
  EXPECT_EQ(server.degraded_replies(), 0u);

  // Degrade the session: the reply's flags explain the serving path and the
  // server counts the degraded reply.
  const PredictionResponse tripped = client.observe_response(session.session_id, 0.1);
  EXPECT_TRUE(tripped.flags & serve_flags::kDegraded);
  EXPECT_TRUE(tripped.flags & serve_flags::kGuardrailTripped);
  EXPECT_DOUBLE_EQ(tripped.mbps, 0.25);
  EXPECT_GE(server.degraded_replies(), 1u);

  const PredictionResponse direct = client.predict_response(session.session_id, 1);
  EXPECT_TRUE(direct.flags & serve_flags::kDegraded);

  // Recovery clears the flags again.
  const PredictionResponse recovered = client.observe_response(session.session_id, 4.0);
  EXPECT_EQ(recovered.flags, serve_flags::kPrimary);
}

TEST(PredictionService, RemotePredictorSurfacesServerFlags) {
  PredictionServer server(std::make_shared<SwitchableModel>());
  PredictionClient client(server.port());
  RemoteSessionPredictor predictor(client, features(), 9.0);

  predictor.observe(3.0);
  EXPECT_EQ(predictor.serve_flags(), serve_flags::kPrimary);
  EXPECT_FALSE(predictor.degraded());

  // The server-side trip is visible through the adapter without any local
  // fault: the remote bits pass through verbatim.
  predictor.observe(0.1);
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kGuardrailTripped);
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kDegraded);
  EXPECT_FALSE(predictor.serve_flags() & serve_flags::kRemoteFallback);
  EXPECT_FALSE(predictor.degraded());  // the service itself is healthy
  EXPECT_EQ(predictor.last_server_flags(),
            serve_flags::kDegraded | serve_flags::kGuardrailTripped);

  predictor.observe(5.0);
  EXPECT_EQ(predictor.serve_flags(), serve_flags::kPrimary);
}

TEST(PredictionService, RemoteFallbackSetsLocalFlagBits) {
  auto server = std::make_unique<PredictionServer>(
      std::make_shared<SwitchableModel>());
  const std::uint16_t port = server->port();
  ClientConfig config;
  config.max_retries = 1;
  config.backoff_initial_ms = 1;
  PredictionClient client(port, config);
  RemoteSessionPredictor predictor(client, features(), 9.0);
  predictor.observe(3.0);

  // Kill the service entirely: the predictor degrades to its local fallback
  // and its flags say so (remote-fallback + degraded).
  server.reset();
  for (int i = 0; i < 10 && !predictor.degraded(); ++i) predictor.observe(3.0);
  ASSERT_TRUE(predictor.degraded());
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kRemoteFallback);
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kDegraded);
}

// -- Shutdown races ---------------------------------------------------------

TEST(PredictionService, StopWhileRequestsInFlight) {
  auto server = std::make_unique<PredictionServer>(
      std::make_shared<EchoPlusOneModel>());
  const std::uint16_t port = server->port();

  constexpr int kThreads = 4;
  std::atomic<int> escaped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([port, &escaped] {
      try {
        ClientConfig config;
        config.max_retries = 1;
        config.backoff_initial_ms = 1;
        PredictionClient client(port, config);
        RemoteSessionPredictor predictor(client, features(), 1.0);
        for (int i = 0; i < 500; ++i) predictor.observe(1.0 + i % 7);
        // Either the whole run beat the shutdown, or the predictor degraded
        // to its local fallback — never an exception into this loop.
      } catch (const std::exception&) {
        ++escaped;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(escaped.load(), 0);
}

TEST(PredictionService, ConcurrentStopCallers) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  (void)client.hello(features(), 1.0);
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i)
    stoppers.emplace_back([&server] { server.stop(); });
  for (auto& t : stoppers) t.join();
  SUCCEED();
}

TEST(PredictionService, DestructorDuringAccept) {
  auto model = std::make_shared<EchoPlusOneModel>();
  for (int i = 0; i < 10; ++i) {
    PredictionServer server(model);
    // Destroyed immediately, possibly before the accept loop first polls.
  }
  SUCCEED();
}

// -- STATS verb (protocol v3) -------------------------------------------------

/// Value of the series rendered exactly as `key` in the exposition, or NaN.
double series_value(const std::string& exposition, const std::string& key) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    const std::string line = exposition.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() > key.size() + 1 && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ')
      return std::stod(line.substr(key.size() + 1));
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TEST(PredictionService, StatsVerbScrapesLiveRegistry) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());

  const auto session = client.hello(features(), 1.0);
  client.observe(session.session_id, 3.0);
  client.predict(session.session_id, 1);

  const StatsResponse stats = client.stats();
  EXPECT_EQ(stats.exposition_version, obs::kMetricsExpositionVersion);
  EXPECT_TRUE(stats.exposition.starts_with("# cs2p_metrics_version"));

  const double requests =
      series_value(stats.exposition, "cs2p_server_requests_total");
  const double replies =
      series_value(stats.exposition, "cs2p_server_replies_total");
  ASSERT_FALSE(std::isnan(requests));
  ASSERT_FALSE(std::isnan(replies));
  // hello + observe + predict + the STATS request itself.
  EXPECT_GE(requests, 4.0);
  // The STATS request is counted before its reply is sent, so the scrape
  // itself proves the invariant strictly.
  EXPECT_GT(requests, replies);
  EXPECT_GE(replies, 3.0);

  // Per-verb counters saw the session lifecycle.
  EXPECT_EQ(series_value(stats.exposition,
                         "cs2p_server_verb_requests_total{verb=\"hello\"}"),
            1.0);
  EXPECT_EQ(series_value(stats.exposition,
                         "cs2p_server_verb_requests_total{verb=\"stats\"}"),
            1.0);
  // The session is still open; the gauge is refreshed at scrape time.
  EXPECT_EQ(series_value(stats.exposition, "cs2p_server_live_sessions"), 1.0);

  client.bye(session.session_id);
  const StatsResponse after = client.stats();
  EXPECT_EQ(series_value(after.exposition, "cs2p_server_live_sessions"), 0.0);
  // Counters are cumulative: the second scrape can only move forward.
  EXPECT_GT(series_value(after.exposition, "cs2p_server_requests_total"),
            requests);
}

TEST(PredictionService, StatsScrapeCountsDegradedReplies) {
  PredictionServer server(std::make_shared<SwitchableModel>());
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);
  (void)client.observe_response(session.session_id, 0.1);  // trips the guardrail

  const StatsResponse stats = client.stats();
  EXPECT_GE(
      series_value(stats.exposition, "cs2p_server_degraded_replies_total"),
      1.0);
  // Registry and legacy accessor read the same counter.
  EXPECT_EQ(
      series_value(stats.exposition, "cs2p_server_degraded_replies_total"),
      static_cast<double>(server.degraded_replies()));
  // Request latencies landed in the histogram (hello + observe; the STATS
  // request's own latency is only observed after its reply is sent).
  EXPECT_GE(series_value(stats.exposition,
                         "cs2p_server_request_seconds_count"),
            2.0);
}

TEST(PredictionService, StatsInvariantHoldsUnderConcurrentScrapes) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  constexpr int kWorkers = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> workers;
  for (int c = 0; c < kWorkers; ++c) {
    workers.emplace_back([&server, &failures, c] {
      try {
        PredictionClient client(server.port());
        const auto session = client.hello(features(), static_cast<double>(c));
        for (int r = 0; r < 100; ++r)
          client.observe(session.session_id, 1.0 + r % 5);
        client.bye(session.session_id);
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }

  std::thread scraper([&server, &done, &failures] {
    try {
      PredictionClient client(server.port());
      while (!done.load(std::memory_order_relaxed)) {
        const StatsResponse stats = client.stats();
        const double requests =
            series_value(stats.exposition, "cs2p_server_requests_total");
        const double replies =
            series_value(stats.exposition, "cs2p_server_replies_total");
        // A reply can never outrun its request, no matter when we look.
        if (!(requests >= replies)) ++failures;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::exception&) {
      ++failures;
    }
  });

  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(failures.load(), 0);
}

// -- Sharded serving core: worker pool + session migration --------------------

/// Live thread count of this process (the "Threads:" row of
/// /proc/self/status); 0 if unreadable.
std::size_t process_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::stoul(line.substr(sizeof("Threads:") - 1));
  }
  return 0;
}

// The migration tests below speak the wire protocol over raw transports:
// PredictionClient rewrites session ids to client-local handles and heals
// UNKNOWN_SESSION by replaying HELLO, which would mask exactly the
// server-side semantics under test (true ids, shared state, hard
// invalidation).
std::unique_ptr<Transport> raw_connection(std::uint16_t port) {
  return loopback_connector(port, TransportDeadlines{2'000, 2'000})();
}

Response raw_round_trip(Transport& transport, const Request& request) {
  send_frame(transport, serialize_request(request));
  const auto frame = recv_frame(transport);
  if (!frame) throw ConnectionError("server closed connection");
  return parse_response(*frame);
}

// Sessions are addressed by id, not by connection: a session opened on one
// connection is fully usable — and closable — from any other.
TEST(PredictionService, SessionMigratesAcrossConnections) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto a = raw_connection(server.port());
  const auto b = raw_connection(server.port());
  const auto c = raw_connection(server.port());

  const Response hello = raw_round_trip(*a, HelloRequest{features(), 1.0});
  const auto* session = std::get_if<SessionResponse>(&hello);
  ASSERT_NE(session, nullptr);
  const std::uint64_t id = session->session_id;

  const Response obs = raw_round_trip(*b, ObserveRequest{id, 5.0});
  const auto* forecast = std::get_if<PredictionResponse>(&obs);
  ASSERT_NE(forecast, nullptr);
  EXPECT_DOUBLE_EQ(forecast->mbps, 6.0);

  const Response pred = raw_round_trip(*c, PredictRequest{id, 3});
  const auto* direct = std::get_if<PredictionResponse>(&pred);
  ASSERT_NE(direct, nullptr);
  EXPECT_DOUBLE_EQ(direct->mbps, 8.0);

  // BYE from a fourth connection invalidates the session everywhere.
  const auto d = raw_connection(server.port());
  EXPECT_TRUE(std::holds_alternative<OkResponse>(
      raw_round_trip(*d, ByeRequest{id})));
  const Response gone = raw_round_trip(*a, ObserveRequest{id, 1.0});
  const auto* err = std::get_if<ErrorResponse>(&gone);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, WireErrorCode::kUnknownSession);
}

// A migrated session keeps the model that created it even when the server
// hot-swaps mid-lifetime (the table entry pins the owner); new sessions pick
// up the new model.
TEST(PredictionService, MigratedSessionSurvivesModelSwap) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto a = raw_connection(server.port());
  const Response hello = raw_round_trip(*a, HelloRequest{features(), 1.0});
  const std::uint64_t id = std::get<SessionResponse>(hello).session_id;

  server.swap_model(std::make_shared<SwitchableModel>());

  // EchoPlusOne semantics (last + 1) persist for the pinned session, even
  // when touched from a fresh connection after the swap.
  const auto b = raw_connection(server.port());
  const Response obs = raw_round_trip(*b, ObserveRequest{id, 5.0});
  EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(obs).mbps, 6.0);

  // Switchable semantics (predict == last) apply to sessions born after.
  const Response fresh_hello = raw_round_trip(*b, HelloRequest{features(), 1.0});
  const std::uint64_t fresh = std::get<SessionResponse>(fresh_hello).session_id;
  EXPECT_NE(fresh, id);
  const Response fresh_obs = raw_round_trip(*b, ObserveRequest{fresh, 5.0});
  EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(fresh_obs).mbps, 5.0);
}

TEST(PredictionService, SessionMigrationCoherentUnderConcurrentSwaps) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      server.swap_model(std::make_shared<EchoPlusOneModel>());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kWorkers = 4;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&server, &failures, w] {
      try {
        for (int round = 0; round < 10; ++round) {
          // Every verb of the lifecycle rides a different connection.
          const auto opener = raw_connection(server.port());
          const auto toucher = raw_connection(server.port());
          const auto closer = raw_connection(server.port());
          const Response hello = raw_round_trip(
              *opener, HelloRequest{features(), static_cast<double>(w)});
          const std::uint64_t id = std::get<SessionResponse>(hello).session_id;
          for (int i = 0; i < 5; ++i) {
            const double sample = 1.0 + (w + i) % 7;
            const Response obs =
                raw_round_trip(*toucher, ObserveRequest{id, sample});
            if (std::get<PredictionResponse>(obs).mbps != sample + 1.0)
              ++failures;
          }
          if (!std::holds_alternative<OkResponse>(
                  raw_round_trip(*closer, ByeRequest{id})))
            ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  EXPECT_EQ(failures.load(), 0);
}

// The regression the worker pool exists to pin down: serving threads are a
// function of --io-threads, never of how many connections come and go.
TEST(PredictionService, WorkerPoolKeepsThreadCountFixedUnderChurn) {
  ServerConfig config;
  config.io_threads = 4;

  const std::size_t before = process_thread_count();
  ASSERT_GT(before, 0u) << "/proc/self/status unreadable";

  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  EXPECT_EQ(server.config().io_threads, 4u);
  const std::size_t budget = before + config.io_threads + 1;  // pool + accept
  EXPECT_LE(process_thread_count(), budget);

  std::size_t peak = 0;
  for (int i = 0; i < 500; ++i) {
    PredictionClient client(server.port());
    const SessionResponse session = client.hello(features(), 1.0);
    client.observe(session.session_id, 1.0);
    // Half the connections say BYE, half abandon their session outright;
    // either way the connection itself churns (client destructor closes it).
    if (i % 2 == 0) client.bye(session.session_id);
    if (i % 16 == 0) peak = std::max(peak, process_thread_count());
  }
  peak = std::max(peak, process_thread_count());
  EXPECT_LE(peak, budget)
      << "thread count grew with connection churn — thread-per-connection is back";
  EXPECT_GE(server.requests_handled(), 1000u);
}

}  // namespace
}  // namespace cs2p
