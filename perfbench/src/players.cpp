// The player machinery: sessions played through simulate_playback with
// RobustMPC, by player threads on their own PredictionClient connections
// (RemoteSessionPredictor) or on replayed forecasts, and the per-session
// QoE checks and scores.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <thread>

#include "abr/offline_optimal.h"
#include "checkers.h"
#include "qoe/qoe.h"
#include "workloads.h"

namespace perfbench {

using cs2p::PlaybackResult;
using cs2p::Session;

namespace {

/// Opens each op at its bitrate choice ("op" span, latency clock) and times
/// the controller under it.
class TimedController final : public cs2p::AbrController {
 public:
  TimedController(cs2p::AbrController& inner, OpSink& sink,
                  std::uint64_t session_tag, std::uint32_t& op_handle)
      : inner_(&inner), sink_(&sink), tag_(session_tag), op_handle_(&op_handle) {}
  std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  std::size_t select_bitrate(const cs2p::AbrState& state,
                             const cs2p::VideoSpec& video) override {
    sink_->op = tag_ * 64 + state.chunk_index + 1;
    if (sink_->log && sink_->log->enabled())
      *op_handle_ = sink_->log->open("op", sink_->op);
    ScopedSpan span(sink_->log, "abr.select", sink_->op);
    return inner_->select_bitrate(state, video);
  }

 private:
  cs2p::AbrController* inner_;
  OpSink* sink_;
  std::uint64_t tag_;
  std::uint32_t* op_handle_;
};

/// Times the predictor calls and closes each op after its observe report.
class TimedPredictor final : public cs2p::SessionPredictor {
 public:
  TimedPredictor(cs2p::SessionPredictor& inner, OpSink& sink,
                 std::uint32_t& op_handle)
      : inner_(&inner), sink_(&sink), op_handle_(&op_handle) {}
  std::optional<double> predict_initial() const override {
    return inner_->predict_initial();
  }
  double predict(unsigned steps) const override {
    ScopedSpan span(sink_->log, "predictors.predict", sink_->op);
    return inner_->predict(steps);
  }
  void observe(double mbps) override {
    {
      ScopedSpan span(sink_->log, "predictors.observe", sink_->op);
      inner_->observe(mbps);
    }
    if (sink_->log && sink_->log->enabled()) sink_->log->close(*op_handle_);
  }
  bool degraded() const override { return inner_->degraded(); }
  std::uint8_t serve_flags() const override { return inner_->serve_flags(); }

 private:
  cs2p::SessionPredictor* inner_;
  OpSink* sink_;
  std::uint32_t* op_handle_;
};

/// Plays a fixed bitrate plan (the offline optimum's) through the simulator.
class PlanController final : public cs2p::AbrController {
 public:
  explicit PlanController(const std::vector<std::size_t>& plan) : plan_(&plan) {}
  std::string name() const override { return "plan"; }
  std::size_t select_bitrate(const cs2p::AbrState& state,
                             const cs2p::VideoSpec&) override {
    return (*plan_)[state.chunk_index];
  }

 private:
  const std::vector<std::size_t>* plan_;
};

/// Player t runs pinned to the (t + 1)-th allowed CPU, so two players never
/// time-slice one CPU; the server's threads (ServerConfig defaults) float.
/// Unpinned players stalled for milliseconds at a time (p99 3-6 ms against
/// 0.5 ms pinned).
int player_cpu(const std::vector<int>& cpus, std::size_t player) {
  return cpus[(player + 1) % cpus.size()];
}

std::vector<double> scaled(const Session& s, double scale) {
  std::vector<double> out = s.throughput_mbps;
  for (double& w : out) w *= scale;
  return out;
}

}  // namespace

PlaybackResult play_session(const Session& session, double scale,
                            cs2p::SessionPredictor& predictor, OpSink& sink,
                            std::uint64_t session_tag) {
  std::uint32_t op_handle = 0;
  cs2p::MpcController mpc(mpc_config());
  TimedController controller(mpc, sink, session_tag, op_handle);
  TimedPredictor timed_predictor(predictor, sink, op_handle);
  const cs2p::ThroughputTrace trace(scaled(session, scale));
  ScopedSpan span(sink.log, "sim.playback", session_tag * 64);
  return cs2p::simulate_playback(video(), trace, controller, &timed_predictor);
}

cs2p::SessionResponse TimingClient::hello(const cs2p::SessionFeatures& features,
                                          double start_hour) {
  sink_->op = 0;
  ScopedSpan span(sink_->log, "net.client.round_trip", 0);
  return inner_->hello(features, start_hour);
}

cs2p::PredictionResponse TimingClient::observe_response(std::uint64_t id,
                                                        double mbps) {
  ScopedSpan span(sink_->log, "net.client.round_trip", sink_->op);
  return inner_->observe_response(id, mbps);
}

cs2p::PredictionResponse TimingClient::predict_response(std::uint64_t id,
                                                        unsigned steps) {
  ScopedSpan span(sink_->log, "net.client.round_trip", sink_->op);
  return inner_->predict_response(id, steps);
}

void TimingClient::bye(std::uint64_t id) {
  sink_->op = 0;
  ScopedSpan span(sink_->log, "net.client.round_trip", 0);
  inner_->bye(id);
}

PlayersRun run_players(std::vector<std::unique_ptr<cs2p::PredictionClient>>& clients,
                       const std::vector<const Session*>& sessions, double scale,
                       bool traced) {
  const std::size_t players = clients.size();
  PlayersRun out;
  out.played.resize(sessions.size());
  std::vector<SpanLog> logs;  // built in place: a copy would drop the reserve
  for (std::size_t t = 0; t < players; ++t) logs.emplace_back(traced);
  std::vector<std::uint64_t> chunks(players, 0), failed(players, 0);
  std::vector<std::int64_t> cpu(players, 0);
  std::vector<long> tids(players + 1, this_tid());
  std::barrier ready(static_cast<std::ptrdiff_t>(players + 1));

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < players; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<int> cpus = allowed_cpus();
      if (!cpus.empty()) pin_this_thread({player_cpu(cpus, t)});
      tids[t + 1] = this_tid();
      OpSink sink{&logs[t], 0};
      TimingClient client(*clients[t], sink);
      ready.arrive_and_wait();  // tids published
      ready.arrive_and_wait();  // counters sampled
      const std::int64_t cpu0 = thread_cpu_ns();
      for (std::size_t i = t; i < sessions.size(); i += players) {
        cs2p::RemoteSessionPredictor remote(client, sessions[i]->features,
                                            sessions[i]->start_hour);
        out.played[i] = play_session(*sessions[i], scale, remote, sink, i + 1);
        chunks[t] += out.played[i].chunks.size();
        for (const auto& c : out.played[i].chunks)
          if (c.serve_flags & cs2p::serve_flags::kRemoteFallback) ++failed[t];
      }
      cpu[t] = thread_cpu_ns() - cpu0;
    });
  }
  ready.arrive_and_wait();
  const PhaseCounters before = PhaseCounters::sample(tids);
  ready.arrive_and_wait();
  for (auto& th : threads) th.join();
  out.counters = PhaseCounters::sample(tids) - before;

  for (std::size_t t = 0; t < players; ++t) {
    out.chunks += chunks[t];
    out.failed += failed[t];
    out.client_cpu_ns += cpu[t];
    out.spans.append(logs[t]);
  }
  return out;
}

double check_and_score(const std::vector<const Session*>& sessions, double scale,
                       const std::vector<PlaybackResult>& played, bool& ok,
                       double& optimal_ms) {
  const cs2p::VideoSpec spec = video();
  const cs2p::OfflineOptimalConfig optimal_config;
  // The DP quantizes the buffer: each chunk's stall can be off by up to one
  // quantum, so the optimum is exact to mu * quantum per chunk.
  const double slack = optimal_config.qoe.mu *
                       optimal_config.buffer_quantum_seconds *
                       static_cast<double>(spec.num_chunks);
  std::vector<double> nqoe(sessions.size(), 0.0), ms(sessions.size(), 0.0);
  std::vector<char> good(sessions.size(), 1);

  auto score = [&](std::size_t i) {
    const PlaybackResult& p = played[i];
    const std::vector<double> trace_mbps = scaled(*sessions[i], scale);
    const cs2p::ThroughputTrace trace(trace_mbps);
    std::vector<ChunkView> views;
    for (std::size_t k = 0; k < p.chunks.size(); ++k) {
      const auto& c = p.chunks[k];
      if (c.actual_throughput_mbps != trace.at(k)) good[i] = 0;
      views.push_back({c.bitrate_kbps, c.actual_throughput_mbps,
                       c.download_seconds, c.rebuffer_seconds});
    }
    const Replayed replay =
        replay_buffer(views, spec.chunk_seconds, spec.buffer_capacity_seconds);
    for (std::size_t k = 0; k < views.size(); ++k)
      if (!close(replay.chunks[k].download_seconds, views[k].download_seconds, 1e-9) ||
          !close(replay.chunks[k].rebuffer_seconds, views[k].rebuffer_seconds, 1e-9))
        good[i] = 0;
    if (!close(replay.startup_seconds, p.startup_delay_seconds, 1e-9)) good[i] = 0;
    const double achieved = cs2p::compute_qoe(p).total;
    if (!close(linear_qoe(replay.chunks, replay.startup_seconds, QoeWeights{}),
               achieved, 1e-9))
      good[i] = 0;

    const std::int64_t t = now_ns();
    const cs2p::OfflineOptimalResult optimum =
        cs2p::offline_optimal_qoe(spec, trace, optimal_config);
    ms[i] = static_cast<double>(now_ns() - t) * 1e-6;
    if (optimum.qoe < achieved - slack) good[i] = 0;
    PlanController plan(optimum.bitrate_plan);
    const PlaybackResult replayed = cs2p::simulate_playback(spec, trace, plan, nullptr);
    if (std::abs(cs2p::compute_qoe(replayed).total - optimum.qoe) > slack) good[i] = 0;
    nqoe[i] = optimum.qoe > 0.0 ? std::max(0.0, achieved / optimum.qoe) : 0.0;
  };

  // Outside every timed phase; spread over a few threads.
  const std::size_t workers = std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w)
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < sessions.size(); i += workers) score(i);
    });
  for (auto& th : pool) th.join();

  for (std::size_t i = 0; i < sessions.size(); ++i)
    if (!good[i]) {
      ok = false;
      std::fprintf(stderr, "qoe check failed on session %lld\n",
                   static_cast<long long>(sessions[i]->id));
    }
  double total_ms = 0;
  for (double m : ms) total_ms += m;
  optimal_ms = sessions.empty() ? 0.0 : total_ms / static_cast<double>(sessions.size());
  return median(nqoe);
}

double played_error(const std::vector<const Session*>& sessions,
                    const std::vector<PlaybackResult>& played) {
  std::vector<double> per_session;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    std::vector<double> forecast, actual;
    for (const auto& c : played[i].chunks) {
      forecast.push_back(c.predicted_throughput_mbps);
      actual.push_back(c.actual_throughput_mbps);
    }
    per_session.push_back(session_error(forecast, actual));
  }
  return median(per_session);
}

void report_player_layers(Result& r, const SpanLog& log, std::uint64_t ops) {
  const auto layers = layer_times(log);
  const auto get = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTimes{} : it->second;
  };
  const LayerTimes select = get("abr.select");
  r.set("abr.mpc_self_us",
        select.count ? select.self_ns * 1e-3 / static_cast<double>(select.count) : 0.0,
        "us");
  r.set("sim.playback_self_us_per_op",
        (get("sim.playback").self_ns + get("op").self_ns) * 1e-3 /
            static_cast<double>(std::max<std::uint64_t>(1, ops)),
        "us");
}

void report_round_trips(Result& r, const SpanLog& log, std::uint64_t ops) {
  std::vector<double> rtt;
  std::uint64_t in_ops = 0;
  const auto& names = SpanLog::names();
  for (const Span& s : log.spans()) {
    if (names[s.name] != "net.client.round_trip") continue;
    rtt.push_back(static_cast<double>(s.end - s.start) * 1e-3);
    if (s.op != 0) ++in_ops;
  }
  r.set("net.client.rtt_us_p50", percentile(rtt, 0.5), "us");
  // A player's wait is the whole client call: the library sends, blocks
  // and decodes inside it.
  r.set("net.wait_us_p50", percentile(rtt, 0.5), "us");
  r.note("net.client.round_trips_per_op",
        static_cast<double>(in_ops) / static_cast<double>(std::max<std::uint64_t>(1, ops)),
        "count");
}

void report_server_layers(Result& r, const ServerCounters& server,
                          const PhaseCounters& phase, std::int64_t client_cpu_ns,
                          std::uint64_t ops) {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, ops));
  r.set("net.client.cpu_us_per_op", static_cast<double>(client_cpu_ns) * 1e-3 / n, "us");
  r.set("net.server.cpu_us_per_op", static_cast<double>(phase.server_cpu_ns) * 1e-3 / n,
        "us");
  r.set("net.server.wakeups_per_op", server.loop_iterations / n, "count");
  r.set("net.ctx_switches_per_op", static_cast<double>(phase.switches) / n, "count");
  r.set("net.server.batch_width_mean",
        server.batch_count > 0 ? server.batch_sum / server.batch_count : 0.0, "count");
  const double verbs = server.observe + server.predict;
  r.set("core.batched_share", verbs > 0 ? server.batched_predicts / verbs : 0.0,
        "ratio");
}

ServerCounters scrape(cs2p::PredictionClient& client) {
  return ServerCounters::from(parse_exposition(client.stats().exposition));
}

}  // namespace perfbench
