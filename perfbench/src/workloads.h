// The two workloads, the player machinery they share, and the replay
// probes of the traced runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "core/trainer.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunOutcome run_serve_mux(const Args& args, Result& result);
RunOutcome run_retrain_shift(const Args& args, Result& result);

// -- Player machinery (the post-phase QoE evaluations) -----------------------

/// Where one player thread records its ops: the spans of each chunk
/// decision (bitrate choice through the observe report), and the op id
/// they share.
struct OpSink {
  SpanLog* log = nullptr;
  std::uint64_t op = 0;
};

/// Plays one session through simulate_playback with RobustMPC, timing each
/// chunk decision into `sink`. `session_tag` makes the op ids unique.
cs2p::PlaybackResult play_session(const cs2p::Session& session, double scale,
                                  cs2p::SessionPredictor& predictor,
                                  OpSink& sink, std::uint64_t session_tag);

/// SessionClient decorator: one "net.client.round_trip" span per call.
class TimingClient final : public cs2p::SessionClient {
 public:
  TimingClient(cs2p::SessionClient& inner, OpSink& sink)
      : inner_(&inner), sink_(&sink) {}
  cs2p::SessionResponse hello(const cs2p::SessionFeatures& features,
                              double start_hour) override;
  cs2p::PredictionResponse observe_response(std::uint64_t id,
                                            double mbps) override;
  cs2p::PredictionResponse predict_response(std::uint64_t id,
                                            unsigned steps) override;
  void bye(std::uint64_t id) override;

 private:
  cs2p::SessionClient* inner_;
  OpSink* sink_;
};

/// Player threads, one per client connection, each playing its share of
/// `sessions` (session i on player i % players) once through the served
/// engine.
struct PlayersRun {
  std::vector<cs2p::PlaybackResult> played;  ///< per session position
  std::uint64_t chunks = 0, failed = 0;
  PhaseCounters counters;
  std::int64_t client_cpu_ns = 0;  ///< the player threads' CPU
  SpanLog spans{false};
};
PlayersRun run_players(std::vector<std::unique_ptr<cs2p::PredictionClient>>& clients,
                       const std::vector<const cs2p::Session*>& sessions,
                       double scale, bool traced);

/// Per-session checks and quality over played sessions: the recomputed
/// buffer dynamics and linear QoE must match the simulator's, and the
/// offline optimum must bound the achieved QoE and reproduce its own value
/// when its plan is replayed. Returns the median n-QoE; clears `ok` on any
/// disagreement. `optimal_ms` receives the mean offline_optimal_qoe time.
double check_and_score(const std::vector<const cs2p::Session*>& sessions,
                       double scale,
                       const std::vector<cs2p::PlaybackResult>& played,
                       bool& ok, double& optimal_ms);

/// Median over sessions of each session's median one-step error, from the
/// forecasts the player recorded per chunk.
double played_error(const std::vector<const cs2p::Session*>& sessions,
                    const std::vector<cs2p::PlaybackResult>& played);

/// abr and sim self times from a player span log.
void report_player_layers(Result& r, const SpanLog& log, std::uint64_t ops);

/// Client round trips from a player span log.
void report_round_trips(Result& r, const SpanLog& log, std::uint64_t ops);

/// Server-side per-layer metrics over a measured phase.
void report_server_layers(Result& r, const ServerCounters& server,
                          const PhaseCounters& phase, std::int64_t client_cpu_ns,
                          std::uint64_t ops);

/// STATS scrape through a PredictionClient.
ServerCounters scrape(cs2p::PredictionClient& client);

// -- Continuous trainer --------------------------------------------------------

/// One pass of the trainer over a session stream, from a fresh
/// ContinuousTrainer on `engine`: rounds of 32 ingests, run_once after each.
struct TrainerPass {
  std::vector<double> round_us, run_once_ms, ingest_us;  ///< ingest_us: traced only
  std::vector<std::uint64_t> retrains, accepts;          ///< per round
  std::uint64_t swaps = 0;  ///< canary accepts plus rollbacks of this pass
  std::shared_ptr<const cs2p::Cs2pEngine> final_engine;
};
TrainerPass run_trainer_pass(std::shared_ptr<const cs2p::Cs2pEngine> engine,
                             const std::vector<const cs2p::Session*>& stream,
                             double scale, SpanLog* log);
void report_trainer_layers(Result& r, const TrainerPass& pass);

// -- Replay probes (traced runs) ---------------------------------------------

struct ProbeInputs {
  const World* world = nullptr;
  std::vector<const cs2p::Session*> sessions;  ///< the workload's own list
  double scale = 1.0;                          ///< throughput multiplier
  std::size_t width = 1;                       ///< measured round width
};
void run_probes(const ProbeInputs& in, Result& r);

}  // namespace perfbench
