// retrain_shift: the continuous-retrain path. An engine trained and warmed
// on the pre-shift world meets a shifted one (test-day traces scaled by
// kShift); completed post-shift sessions stream into
// ContinuousTrainer::ingest in fixed rounds, with a deterministic run_once()
// after each round and the background thread off. No net, no abr on the
// timed path.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/trainer.h"
#include "workloads.h"

namespace perfbench {

using cs2p::Session;

namespace {

constexpr double kShift = 0.25;          ///< post-shift throughput multiplier
constexpr std::size_t kRoundSessions = 32;
constexpr std::size_t kHoldoutStride = 4;  ///< every 4th test session held out
constexpr std::size_t kPlayers = 3;

cs2p::TrainerConfig trainer_config() {
  // The recovery bench's trainer, with every wall-clock window at zero so
  // no decision depends on timing: probation resolves on the next pass and
  // no rollback (hence no backoff) can happen without guardrail sessions.
  cs2p::TrainerConfig config;
  config.reservoir_size = 32;
  config.min_new_sessions = 4;
  config.holdout_stride = 4;
  config.canary_margin = 0.01;
  config.horizon = 2;
  config.probation_ms = 0;
  config.backoff_initial_ms = 0;
  return config;
}

std::vector<double> scaled(const Session& s, double scale) {
  std::vector<double> out = s.throughput_mbps;
  for (double& w : out) w *= scale;
  return out;
}

bool model_ok(const cs2p::GaussianHmm& m, double sigma_floor) {
  const auto stochastic = [](double sum) { return std::abs(sum - 1.0) <= 1e-6; };
  double initial = 0;
  for (double p : m.initial) initial += p;
  if (!stochastic(initial)) return false;
  for (std::size_t i = 0; i < m.num_states(); ++i) {
    double row = 0;
    for (std::size_t j = 0; j < m.num_states(); ++j) row += m.transition(i, j);
    if (!stochastic(row)) return false;
    if (!(m.states[i].sigma >= sigma_floor)) return false;
  }
  return true;
}

double local_error(const cs2p::Cs2pEngine& engine,
                   const std::vector<const Session*>& sessions, double scale) {
  const cs2p::Cs2pPredictorModel model(
      std::shared_ptr<const cs2p::Cs2pEngine>(&engine, [](const cs2p::Cs2pEngine*) {}));
  std::vector<double> errors;
  for (const Session* s : sessions) {
    auto predictor = model.make_session(cs2p::SessionContext::from(*s));
    const std::vector<double> trace = scaled(*s, scale);
    std::vector<double> forecast(video().num_chunks);
    for (std::size_t k = 0; k < forecast.size(); ++k) {
      forecast[k] = predictor->predict(1);
      predictor->observe(trace[k]);
    }
    errors.push_back(session_error(forecast, trace));
  }
  return median(errors);
}

}  // namespace

TrainerPass run_trainer_pass(std::shared_ptr<const cs2p::Cs2pEngine> engine,
                             const std::vector<const Session*>& stream,
                             double scale, SpanLog* log) {
  const bool traced = log != nullptr && log->enabled();
  TrainerPass pass;
  cs2p::ContinuousTrainer trainer(std::move(engine), trainer_config());
  std::vector<std::vector<double>> traces;
  for (const Session* s : stream) traces.push_back(scaled(*s, scale));
  // TrainerStats read the engine's registry, which every pass shares:
  // this pass's figures are the differences from here.
  const cs2p::TrainerStats start = trainer.stats();
  for (std::size_t begin = 0; begin < stream.size(); begin += kRoundSessions) {
    const std::size_t end = std::min(stream.size(), begin + kRoundSessions);
    const cs2p::TrainerStats before = trainer.stats();
    const std::uint64_t op = begin / kRoundSessions + 1;
    const std::int64_t t0 = now_ns();
    const std::uint32_t root = traced ? log->open("op", op) : 0;
    for (std::size_t i = begin; i < end; ++i) {
      ScopedSpan span(log, "core.trainer.ingest", op);
      trainer.ingest(stream[i]->features, stream[i]->start_hour, traces[i]);
    }
    const std::int64_t t1 = now_ns();
    {
      ScopedSpan span(log, "core.trainer.run_once", op);
      trainer.run_once();
    }
    const std::int64_t t2 = now_ns();
    if (traced) log->close(root);
    pass.run_once_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    pass.round_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
    const cs2p::TrainerStats after = trainer.stats();
    pass.retrains.push_back(after.retrains - before.retrains);
    pass.accepts.push_back(after.canary_accepts - before.canary_accepts);
  }
  if (traced)
    for (const Span& s : log->spans())
      if (SpanLog::names()[s.name] == "core.trainer.ingest")
        pass.ingest_us.push_back(static_cast<double>(s.end - s.start) * 1e-3);
  const cs2p::TrainerStats end = trainer.stats();
  pass.swaps = (end.canary_accepts - start.canary_accepts) + (end.rollbacks - start.rollbacks);
  pass.final_engine = trainer.engine();
  return pass;
}

void report_trainer_layers(Result& r, const TrainerPass& pass) {
  double ingest = 0, run_once = 0, retrains = 0, accepts = 0;
  for (double v : pass.ingest_us) ingest += v;
  for (double v : pass.run_once_ms) run_once += v;
  for (auto v : pass.retrains) retrains += static_cast<double>(v);
  for (auto v : pass.accepts) accepts += static_cast<double>(v);
  const double rounds = std::max<double>(1.0, static_cast<double>(pass.run_once_ms.size()));
  // Only retrain_shift runs the trainer: these are notes, not metrics every
  // workload has.
  r.note("core.trainer.ingest_us",
        ingest / std::max<double>(1.0, static_cast<double>(pass.ingest_us.size())), "us");
  r.note("core.trainer.run_once_ms", run_once / rounds, "ms");
  r.note("core.trainer.retrains_per_op", retrains / rounds, "count");
  r.note("core.trainer.accept_share", retrains > 0 ? accepts / retrains : 0.0, "ratio");
}

RunOutcome run_retrain_shift(const Args& args, Result& r) {
  std::vector<SetupTimes> reps;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    const std::int64_t t0 = rep == 0 ? args.process_start_ns : now_ns();
    world = build_world(args);
    reps.push_back(SetupTimes::of(*world, static_cast<double>(now_ns() - t0) * 1e-9));
  }

  // The stream and the held-out evaluation set are fixed by the world seed:
  // ingest order decides what each reservoir holds out for its canary, so
  // reordering the stream would change the retrained models themselves.
  std::vector<const Session*> stream, held_out;
  for (std::size_t i = 0; i < world->test.size(); ++i) {
    const Session& s = world->test.sessions()[i];
    (i % kHoldoutStride == 0 ? held_out : stream).push_back(&s);
  }
  std::vector<const Session*> evaluation;
  for (const Session* s : playable(world->test, kShift))
    if (std::find(held_out.begin(), held_out.end(), s) != held_out.end())
      evaluation.push_back(s);

  auto failed_counter = [&] {
    return world->registry
        ->counter("cs2p_trainer_canary_reject_by_reason_total",
                  {{"reason", "TRAINING_FAILED"}})
        .value();
  };
  const std::uint64_t failed_before = failed_counter();
  const std::vector<long> tids = {this_tid()};
  const PhaseCounters before = PhaseCounters::sample(tids);
  std::vector<TrainerPass> passes;
  do {
    passes.push_back(run_trainer_pass(world->engine, stream, kShift, nullptr));
  } while ((now_ns() - before.wall_ns) * 1e-9 < args.seconds);
  const PhaseCounters phase = PhaseCounters::sample(tids) - before;

  RunOutcome outcome;
  outcome.failed = failed_counter() - failed_before;
  std::vector<double> latencies;
  for (const TrainerPass& p : passes) {
    outcome.attempted += p.round_us.size();
    latencies.insert(latencies.end(), p.round_us.begin(), p.round_us.end());
    // The retrains of every round repeat exactly from pass to pass.
    if (p.retrains != passes[0].retrains || p.accepts != passes[0].accepts)
      outcome.correct = false;
  }

  // Served models are valid, and the lineage counts every swap.
  const auto& final_engine = passes.back().final_engine;
  const double floor = final_engine->config().hmm.min_sigma;
  bool models_valid = model_ok(final_engine->global_hmm(), floor);
  for (const auto& entry : final_engine->export_cluster_models())
    models_valid = models_valid && model_ok(entry.hmm, floor);
  const bool lineage_ok = final_engine->lineage().generation == passes.back().swaps;

  // Quality: the final engine, served, on the held-out post-shift sessions.
  auto served_model = std::make_shared<cs2p::Cs2pPredictorModel>(final_engine);
  const auto server = std::make_unique<cs2p::PredictionServer>(served_model);
  std::vector<std::unique_ptr<cs2p::PredictionClient>> clients;
  for (std::size_t p = 0; p < kPlayers; ++p)
    clients.push_back(std::make_unique<cs2p::PredictionClient>(server->port()));
  const ServerCounters served_before = scrape(*clients[0]);
  PlayersRun eval = run_players(clients, evaluation, kShift, false);
  const ServerCounters served = scrape(*clients[0]) - served_before;
  const double final_error = played_error(evaluation, eval.played);
  const double stale_error = local_error(*world->engine, evaluation, kShift);
  const bool recovered = final_error < stale_error;
  double optimal_ms = 0;
  bool qoe_ok = true;
  const double nqoe =
      check_and_score(evaluation, kShift, eval.played, qoe_ok, optimal_ms);
  outcome.correct = outcome.correct && models_valid && lineage_ok && recovered &&
                    qoe_ok && eval.failed == 0;
  if (!outcome.correct)
    std::fprintf(stderr,
                 "retrain_shift: models_valid=%d lineage_ok=%d final_err=%.4f "
                 "stale_err=%.4f qoe_ok=%d\n",
                 models_valid, lineage_ok, final_error, stale_error, qoe_ok);

  EndToEnd e2e;
  e2e.setup_s = median_setup_s(reps);
  e2e.ops = outcome.attempted;
  e2e.wall_ns = phase.wall_ns;
  e2e.cpu_ns = phase.cpu_ns;
  e2e.latencies_us = std::move(latencies);
  e2e.pred_err_median = final_error;
  e2e.nqoe_median = nqoe;
  if (!args.trace) {
    e2e.report(r);
    return outcome;
  }

  const double untraced_rate =
      static_cast<double>(outcome.attempted) / (static_cast<double>(phase.wall_ns) * 1e-9);
  SpanLog trainer_log(true);
  const std::int64_t t = now_ns();
  const TrainerPass traced_pass = run_trainer_pass(world->engine, stream, kShift, &trainer_log);
  const double traced_rate = static_cast<double>(traced_pass.round_us.size()) /
                             (static_cast<double>(now_ns() - t) * 1e-9);
  r.set("trace.overhead_share", 1.0 - traced_rate / untraced_rate, "ratio");
  report_trainer_layers(r, traced_pass);
  write_spans(trainer_log, args.spans_dir + "/retrain_shift-trainer.tsv");

  // The retrained model as served: network and player layers.
  report_server_layers(r, served, eval.counters, eval.client_cpu_ns, eval.chunks);
  PlayersRun traced = run_players(clients, evaluation, kShift, true);
  report_player_layers(r, traced.spans, traced.chunks);
  report_round_trips(r, traced.spans, traced.chunks);
  r.set("qoe.offline_optimal_ms", optimal_ms, "ms");
  write_spans(traced.spans, args.spans_dir + "/retrain_shift-serve.tsv");
  report_setup_split(r, reps);

  ProbeInputs probe;
  probe.world = world.get();
  probe.sessions = stream;
  probe.scale = kShift;
  probe.width = 1;
  run_probes(probe, r);
  return outcome;
}

}  // namespace perfbench
