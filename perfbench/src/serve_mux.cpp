// serve_mux: one generator thread multiplexes closed-loop players over four
// connections to an in-process PredictionServer (one io thread, so four
// connections per worker). Each player keeps one request in flight: HELLO,
// then per chunk OBSERVE and PREDICT h = 2..5 (what RobustMPC asks for),
// then BYE; the next session of the seeded list takes its place.
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <stdexcept>

#include "checkers.h"
#include "net/socket.h"
#include "net/wire.h"
#include "workloads.h"

namespace perfbench {

using cs2p::Session;

namespace {

// Four connections (nproc) on one io thread: frames of several connections
// meet in one poll round and batch.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPlayersPerConnection = 8;
constexpr std::size_t kIoThreads = 1;
constexpr unsigned kHorizon = 5;  ///< OBSERVE answers h = 1, PREDICT 2..5
const std::size_t kChunks = video().num_chunks;
const std::size_t kValuesPerSession = kChunks * kHorizon;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

enum class Stage : std::uint8_t { kHello, kObserve, kPredict, kBye, kIdle };

struct Player {
  std::size_t conn = 0;
  std::size_t pos = 0;       ///< session position in the list
  std::uint64_t round = 0;
  Stage stage = Stage::kIdle;
  std::uint64_t sid = 0;
  std::size_t chunk = 0;
  unsigned h = 1;
};

struct InFlight {
  std::uint32_t player = 0;
  std::int64_t t_send = 0;
  std::int64_t enc_start = 0, enc_end = 0;  ///< traced rounds only
};

struct Conn {
  cs2p::FdHandle fd;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::size_t in_pos = 0;
  std::deque<InFlight> inflight;
  std::vector<std::uint32_t> ready;
};

/// Blocking request/reply on a connection with nothing in flight (setup,
/// STATS scrapes).
cs2p::Response round_trip(Conn& c, const cs2p::Request& request) {
  cs2p::send_frame(c.fd, cs2p::serialize_request(request));
  auto payload = cs2p::recv_frame(c.fd);
  if (!payload) throw std::runtime_error("serve_mux: server closed the connection");
  return cs2p::parse_response(*payload);
}

ServerCounters scrape_conn(Conn& c) {
  const auto reply = round_trip(c, cs2p::StatsRequest{});
  return ServerCounters::from(
      parse_exposition(std::get<cs2p::StatsResponse>(reply).exposition));
}

/// The generator and the server's threads share the last allowed CPU.
/// Each blocks in poll while the other works, so a request costs the CPU
/// both sides spend on it and no cross-CPU wake-up: split across two CPUs,
/// the same load took 15 us of CPU per request against 10 us here, and the
/// other CPUs stay free for the rest of the host.
std::vector<int> load_cpu(const std::vector<int>& cpus) {
  return cpus.empty() ? cpus : std::vector<int>{cpus.back()};
}

struct Rig {
  std::vector<int> cpus = allowed_cpus();
  std::unique_ptr<World> world;
  std::unique_ptr<cs2p::PredictionServer> server;
  std::vector<Conn> conns;
  std::vector<const Session*> sessions;
  std::vector<CheckModel> models;       ///< per position, from MODEL
  std::vector<double> model_initial;    ///< per position, from MODEL
};

/// What the players were served. Round 0 is kept whole for the checker
/// (pos * 220 + k * 5 + h - 1); every later round must reproduce it reply
/// for reply, which is compared as the replies arrive, so the harness's
/// memory stays the same however many rounds a run completes.
struct MuxRun {
  std::uint64_t ops = 0, failed = 0;
  std::uint64_t rounds = 0, mismatches = 0;  ///< replies differing from round 0
  bool transport_ok = true;
  LatencySample latencies;
  std::vector<double> served;   ///< round 0
  std::vector<double> initial;  ///< round 0: SESSION initial mbps
  /// Later-round replies that arrived before round 0 had recorded the same
  /// slot (a slow round-0 session); compared once the run ends.
  std::vector<std::pair<const double*, double>> deferred;
  PhaseCounters counters;
  std::int64_t client_cpu_ns = 0;
  SpanLog spans{false};
};

/// Drives whole rounds of the session list until `seconds` have passed.
MuxRun run_mux(Rig& rig, double seconds, std::uint64_t min_rounds, bool traced) {
  const std::size_t n = rig.sessions.size();
  MuxRun run;
  run.spans = SpanLog(traced);
  run.served.assign(n * kValuesPerSession, kNaN);
  run.initial.assign(n, kNaN);
  std::vector<Player> players(kConnections * kPlayersPerConnection);
  for (std::size_t p = 0; p < players.size(); ++p) players[p].conn = p % kConnections;
  std::uint64_t next_item = 0;
  bool draining = false;
  std::size_t busy = 0;

  pin_this_thread(load_cpu(rig.cpus));
  const std::vector<long> client_tids = {this_tid()};
  const PhaseCounters before = PhaseCounters::sample(client_tids);
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t t0 = before.wall_ns;

  // Gives an idle player its next session, or leaves it idle once the run
  // has measured long enough and a round has just been completed in full.
  auto assign = [&](Player& p) {
    if (!draining && next_item % n == 0 && next_item / n >= min_rounds &&
        (now_ns() - t0) * 1e-9 >= seconds)
      draining = true;
    if (draining) {
      p.stage = Stage::kIdle;
      return false;
    }
    p.round = next_item / n;
    p.pos = next_item % n;
    ++next_item;
    run.rounds = std::max(run.rounds, p.round + 1);
    p.stage = Stage::kHello;
    p.chunk = 0;
    p.h = 1;
    ++busy;
    return true;
  };

  auto request_of = [&](const Player& p) -> cs2p::Request {
    const Session& s = *rig.sessions[p.pos];
    switch (p.stage) {
      case Stage::kHello:
        return cs2p::HelloRequest{s.features, s.start_hour};
      case Stage::kObserve:
        return cs2p::ObserveRequest{p.sid, s.throughput_mbps[p.chunk]};
      case Stage::kPredict:
        return cs2p::PredictRequest{p.sid, p.h};
      default:
        return cs2p::ByeRequest{p.sid};
    }
  };

  // Advances a player past one reply; false when its session ended.
  auto advance = [&](Player& p, const cs2p::Response& reply) {
    if (std::holds_alternative<cs2p::ErrorResponse>(reply)) {
      ++run.failed;
      if (p.stage == Stage::kHello) return false;  // no session to drive
    }
    // Round 0 records; later rounds compare against it.
    const auto record = [&](double& slot, double value) {
      if (p.round == 0) slot = value;
      else if (std::isnan(slot)) run.deferred.emplace_back(&slot, value);
      else if (value != slot) ++run.mismatches;
    };
    switch (p.stage) {
      case Stage::kHello:
        if (const auto* s = std::get_if<cs2p::SessionResponse>(&reply)) {
          p.sid = s->session_id;
          record(run.initial[p.pos], s->initial_mbps);
        }
        p.stage = Stage::kObserve;
        return true;
      case Stage::kObserve:
      case Stage::kPredict:
        if (const auto* pr = std::get_if<cs2p::PredictionResponse>(&reply))
          record(run.served[p.pos * kValuesPerSession + p.chunk * kHorizon + p.h - 1],
                 pr->mbps);
        if (p.stage == Stage::kObserve) {
          p.stage = Stage::kPredict;
          p.h = 2;
        } else if (++p.h > kHorizon) {
          p.h = 1;
          p.stage = ++p.chunk == kChunks ? Stage::kBye : Stage::kObserve;
        }
        return true;
      default:
        return false;
    }
  };

  for (std::size_t p = 0; p < players.size() && assign(players[p]); ++p)
    rig.conns[players[p].conn].ready.push_back(static_cast<std::uint32_t>(p));

  std::vector<pollfd> fds(kConnections);
  std::int64_t last_progress = t0;
  while (busy > 0 && run.transport_ok) {
    // Queue every ready player's next request, one send per connection.
    for (std::size_t c = 0; c < kConnections; ++c) {
      Conn& conn = rig.conns[c];
      if (conn.ready.empty() && conn.out_pos == conn.out.size()) continue;
      for (const std::uint32_t id : conn.ready) {
        InFlight f;
        f.player = id;
        if (traced) f.enc_start = now_ns();
        conn.out += cs2p::encode_frame(cs2p::serialize_request(request_of(players[id])));
        if (traced) f.enc_end = now_ns();
        conn.inflight.push_back(f);
      }
      const std::size_t queued = conn.ready.size();
      conn.ready.clear();
      const std::int64_t t_send = now_ns();
      for (std::size_t k = conn.inflight.size() - queued; k < conn.inflight.size(); ++k)
        conn.inflight[k].t_send = t_send;
      while (conn.out_pos < conn.out.size()) {
        const ssize_t sent = ::send(conn.fd.get(), conn.out.data() + conn.out_pos,
                                    conn.out.size() - conn.out_pos,
                                    MSG_DONTWAIT | MSG_NOSIGNAL);
        if (sent > 0) {
          conn.out_pos += static_cast<std::size_t>(sent);
        } else if (sent < 0 && errno == EINTR) {
          continue;
        } else {
          if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
            run.transport_ok = false;
          break;
        }
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
      if (traced) {
        // The wait span starts when the request has left the generator.
        const std::int64_t sent_at = now_ns();
        for (std::size_t k = conn.inflight.size() - queued; k < conn.inflight.size(); ++k)
          conn.inflight[k].t_send = sent_at;
      }
    }

    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c].fd = rig.conns[c].fd.get();
      fds[c].events = static_cast<short>(
          POLLIN | (rig.conns[c].out_pos < rig.conns[c].out.size() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    // Blocks until a reply arrives, so the generator's CPU is the work it
    // does, not its waiting.
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      run.transport_ok = false;
      break;
    }
    const std::int64_t now = now_ns();
    if (now - last_progress > 5'000'000'000) {
      run.transport_ok = false;  // five seconds without a reply: stalled
      break;
    }

    for (std::size_t c = 0; c < kConnections; ++c) {
      if (!(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      Conn& conn = rig.conns[c];
      char buf[65536];
      for (;;) {
        const ssize_t got = ::recv(conn.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          conn.in.append(buf, static_cast<std::size_t>(got));
          if (static_cast<std::size_t>(got) < sizeof(buf)) break;
        } else if (got < 0 && errno == EINTR) {
          continue;
        } else {
          if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
            run.transport_ok = false;
          break;
        }
      }
      // Decode every complete frame; replies come back in request order.
      while (conn.in.size() - conn.in_pos >= cs2p::kFrameHeaderBytes &&
             !conn.inflight.empty()) {
        const std::int64_t t_frame = traced ? now_ns() : 0;
        const std::string_view rest(conn.in.data() + conn.in_pos,
                                    conn.in.size() - conn.in_pos);
        const std::uint32_t len = cs2p::parse_frame_header(rest);
        if (rest.size() < cs2p::kFrameHeaderBytes + len) break;
        const cs2p::Response reply =
            cs2p::parse_response(rest.substr(cs2p::kFrameHeaderBytes, len));
        conn.in_pos += cs2p::kFrameHeaderBytes + len;
        const std::int64_t t_done = now_ns();
        last_progress = t_done;
        const InFlight f = conn.inflight.front();
        conn.inflight.pop_front();
        ++run.ops;
        if (traced) {
          const std::uint64_t op = run.ops;
          const std::uint32_t root = run.spans.add("op", op, f.enc_start, t_done, 0);
          run.spans.add("net.wire.encode", op, f.enc_start, f.enc_end, root);
          run.spans.add("net.wait", op, f.t_send, t_done, root);
          run.spans.add("net.wire.decode", op, t_frame, t_done, root);
          run.latencies.add(static_cast<double>(t_done - f.enc_start) * 1e-3);
        } else {
          run.latencies.add(static_cast<double>(t_done - f.t_send) * 1e-3);
        }
        Player& p = players[f.player];
        if (advance(p, reply) || (--busy, assign(p)))
          conn.ready.push_back(f.player);
      }
      if (conn.in_pos == conn.in.size()) {
        conn.in.clear();
        conn.in_pos = 0;
      }
    }
  }
  run.client_cpu_ns = thread_cpu_ns() - cpu0;
  pin_this_thread(rig.cpus);
  for (const auto& [slot, value] : run.deferred)
    if (value != *slot) ++run.mismatches;
  run.counters = PhaseCounters::sample(client_tids) - before;
  if (!run.transport_ok) {
    for (const Conn& c : rig.conns) run.failed += c.inflight.size();
    std::fprintf(stderr, "serve_mux: transport error or stall\n");
  }
  return run;
}

/// The served predictions of one session, replayed as a predictor so the
/// player can score the QoE they would give.
class ReplayPredictor final : public cs2p::SessionPredictor {
 public:
  ReplayPredictor(const double* values, double initial)
      : values_(values), initial_(initial) {}
  std::optional<double> predict_initial() const override { return initial_; }
  double predict(unsigned steps) const override {
    if (observed_ == 0) return initial_;
    return values_[(observed_ - 1) * kHorizon + std::min(steps, kHorizon) - 1];
  }
  void observe(double) override { ++observed_; }

 private:
  const double* values_;
  double initial_;
  std::size_t observed_ = 0;
};

}  // namespace

RunOutcome run_serve_mux(const Args& args, Result& r) {
  std::vector<SetupTimes> reps;
  Rig rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig = Rig{};
    const std::int64_t t0 = rep == 0 ? args.process_start_ns : now_ns();
    rig.world = build_world(args);
    cs2p::ServerConfig config;
    config.io_threads = kIoThreads;
    pin_this_thread(load_cpu(rig.cpus));  // the server's threads inherit it
    rig.server = std::make_unique<cs2p::PredictionServer>(rig.world->model, config);
    pin_this_thread(rig.cpus);
    rig.conns.resize(kConnections);
    for (Conn& c : rig.conns) c.fd = cs2p::connect_loopback(rig.server->port());
    rig.sessions = session_list(rig.world->test, args.seed);
    // The checker's models, and every session's cluster trained before the
    // timed phase.
    for (const Session* s : rig.sessions) {
      const auto reply =
          round_trip(rig.conns[0], cs2p::ModelRequest{s->features, s->start_hour});
      const auto& model = std::get<cs2p::ModelResponse>(reply);
      auto parsed = parse_model_text(model.serialized_hmm);
      if (!parsed) throw std::runtime_error("serve_mux: unreadable MODEL reply");
      rig.models.push_back(std::move(*parsed));
      rig.model_initial.push_back(model.initial_mbps);
    }
    reps.push_back(SetupTimes::of(*rig.world, static_cast<double>(now_ns() - t0) * 1e-9));
  }

  const ServerCounters before = scrape_conn(rig.conns[0]);
  MuxRun run = run_mux(rig, args.seconds, 1, false);
  const ServerCounters server = scrape_conn(rig.conns[0]) - before;

  // Every PRED must be the independent Algorithm-1 filter's forecast.
  // Round 0 is checked against the filter; later rounds matched it reply
  // for reply (a reply that did not is a rejected prediction).
  RunOutcome outcome;
  std::uint64_t rejected = run.mismatches;
  const std::size_t n = rig.sessions.size();
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Session& s = *rig.sessions[pos];
    const double init = run.initial[pos];
    if (!std::isnan(init) && init != rig.model_initial[pos]) rejected += run.rounds;
    ForwardFilter filter(rig.models[pos]);
    const double* values = run.served.data() + pos * kValuesPerSession;
    for (std::size_t k = 0; k < kChunks; ++k) {
      filter.observe(s.throughput_mbps[k]);
      for (unsigned h = 1; h <= kHorizon; ++h) {
        const double v = values[k * kHorizon + h - 1];
        if (!std::isnan(v) && !filter.accepts(h, v)) rejected += run.rounds;
      }
    }
  }
  if (rejected > 0)
    std::fprintf(stderr, "serve_mux: %llu predictions rejected by the checker\n",
                 static_cast<unsigned long long>(rejected));
  outcome.attempted = run.ops;
  outcome.failed = run.failed + rejected;
  outcome.correct = run.transport_ok && server.errors == static_cast<double>(run.failed);

  // Quality of the served predictions: round 0's forecasts, scored as the
  // player would use them.
  std::vector<double> errors;
  std::vector<cs2p::PlaybackResult> played(n);
  SpanLog replay_log(args.trace);
  OpSink sink{&replay_log, 0};
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Session& s = *rig.sessions[pos];
    const double* values = run.served.data() + pos * kValuesPerSession;
    std::vector<double> forecast(kChunks), actual(kChunks);
    for (std::size_t k = 0; k < kChunks; ++k) {
      forecast[k] = k == 0 ? run.initial[pos] : values[(k - 1) * kHorizon];
      actual[k] = s.throughput_mbps[k];
    }
    errors.push_back(session_error(forecast, actual));
    ReplayPredictor replay(values, run.initial[pos]);
    played[pos] = play_session(s, 1.0, replay, sink, pos + 1);
  }

  EndToEnd e2e;
  e2e.setup_s = median_setup_s(reps);
  e2e.ops = run.ops;
  e2e.wall_ns = run.counters.wall_ns;
  e2e.cpu_ns = run.counters.cpu_ns;
  e2e.latencies_us = run.latencies.values();
  e2e.pred_err_median = median(errors);
  double optimal_ms = 0;
  e2e.nqoe_median =
      check_and_score(rig.sessions, 1.0, played, outcome.correct, optimal_ms);

  if (!args.trace) {
    e2e.report(r);
    return outcome;
  }

  report_server_layers(r, server, run.counters, run.client_cpu_ns, run.ops);
  MuxRun traced = run_mux(rig, 0.0, 4, true);
  r.set("trace.overhead_share",
        1.0 - ops_per_s(traced.ops, traced.counters.wall_ns) /
                  ops_per_s(run.ops, run.counters.wall_ns),
        "ratio");

  const auto layers = layer_times(traced.spans);
  const auto mean_ns = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count);
  };
  // Only the generator encodes and decodes on a timed path of its own.
  r.note("net.wire.encode_ns", mean_ns("net.wire.encode"), "ns");
  r.note("net.wire.decode_ns", mean_ns("net.wire.decode"), "ns");
  const auto wait = layers.find("net.wait");
  r.set("net.wait_us_p50",
        wait == layers.end() ? 0.0 : percentile(wait->second.durations_ns, 0.5) * 1e-3,
        "us");
  const auto op = layers.find("op");
  r.set("net.client.rtt_us_p50",
        op == layers.end() ? 0.0 : percentile(op->second.durations_ns, 0.5) * 1e-3, "us");
  report_player_layers(r, replay_log, n * kChunks);
  r.set("qoe.offline_optimal_ms", optimal_ms, "ms");
  write_spans(traced.spans, args.spans_dir + "/serve_mux.tsv");
  report_setup_split(r, reps);

  ProbeInputs probe;
  probe.world = rig.world.get();
  probe.sessions = rig.sessions;
  probe.width = static_cast<std::size_t>(std::max(
      1.0, std::round(server.batch_count > 0 ? server.batch_sum / server.batch_count : 1.0)));
  run_probes(probe, r);
  return outcome;
}

}  // namespace perfbench
