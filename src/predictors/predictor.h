// Common interface of all throughput predictors (CS2P and the baselines).
//
// A PredictorModel is the trained artifact (built once from a training
// dataset); it spawns one SessionPredictor per video session. The session
// predictor is driven epoch by epoch exactly like a player would drive it:
//
//   auto sp = model.make_session(ctx);
//   double w0_hat = sp->predict_initial().value_or(fallback);   // pre-play
//   for each epoch t: { w_hat = sp->predict(1); ... sp->observe(w_t); }
//
// History-based predictors (LS/HM/AR) return nullopt from predict_initial —
// the paper notes they "can not be used for the initial throughput
// prediction" — and require at least one observation before predict().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataset/session.h"
#include "hmm/model.h"

namespace cs2p {

/// What a predictor may know about a session before any throughput is
/// observed: its features and start time. `oracle_series` is set only by the
/// evaluation harness for the Oracle upper-bound predictor; real predictors
/// must ignore it.
struct SessionContext {
  SessionFeatures features;
  int day = 0;
  double start_hour = 0.0;
  const std::vector<double>* oracle_series = nullptr;

  static SessionContext from(const Session& s) {
    return SessionContext{s.features, s.day, s.start_hour, nullptr};
  }
};

/// Why a prediction was served the way it was. Carried as a flags byte in
/// the wire protocol's PRED replies (net/wire.h, protocol v2) so remote
/// players and the simulator can attribute forecast quality to the right
/// serving path, not just to "the predictor".
namespace serve_flags {
inline constexpr std::uint8_t kPrimary = 0;             ///< the session's own model
inline constexpr std::uint8_t kDegraded = 1u << 0;      ///< any fallback is serving
inline constexpr std::uint8_t kGuardrailTripped = 1u << 1;  ///< per-session guardrail DEGRADED
inline constexpr std::uint8_t kClusterDrifted = 1u << 2;    ///< cluster marked drifted at HELLO
inline constexpr std::uint8_t kGlobalModel = 1u << 3;       ///< session runs on the global HMM
inline constexpr std::uint8_t kRemoteFallback = 1u << 4;    ///< client-side local fallback (service lost)
inline constexpr std::uint8_t kDraining = 1u << 5;          ///< replica is draining; plan a migration
inline constexpr std::uint8_t kBrownout = 1u << 6;          ///< cheap fallback served under overload brownout
}  // namespace serve_flags

/// Per-session prediction state machine.
class SessionPredictor {
 public:
  virtual ~SessionPredictor() = default;

  /// Initial-epoch prediction (Mbps), available before any observation.
  /// nullopt when this predictor family cannot predict cold-start.
  virtual std::optional<double> predict_initial() const { return std::nullopt; }

  /// Predicts throughput `steps_ahead` epochs past the last observation
  /// (1 = next epoch). History-based predictors throw std::logic_error if
  /// called before the first observe().
  virtual double predict(unsigned steps_ahead = 1) const = 0;

  /// Feeds the measured throughput of the epoch that just completed.
  virtual void observe(double throughput_mbps) = 0;

  /// True when the predictor has lost its backing service and is running on
  /// a local fallback (see RemoteSessionPredictor), or when its guardrail
  /// has switched it to the fallback chain (GuardedSessionPredictor).
  virtual bool degraded() const { return false; }

  /// serve_flags:: bits describing why the *next* prediction would be
  /// served the way it is. Default: primary when healthy, kDegraded when
  /// degraded() — richer predictors override with the full story.
  virtual std::uint8_t serve_flags() const {
    return degraded() ? serve_flags::kDegraded : serve_flags::kPrimary;
  }

  /// One-step predictive log-likelihood the model assigned to the most
  /// recent accepted observation — the per-request prediction-quality signal
  /// the trace log records (DESIGN.md §11). nullopt for predictor families
  /// without a probabilistic model, and before the first observation.
  virtual std::optional<double> last_log_likelihood() const {
    return std::nullopt;
  }

  /// Cheap degraded forecast for overload brownout (DESIGN.md §14): a
  /// forecast that skips the expensive primary path (e.g. the guarded
  /// predictor's HM/global fallback chain instead of full HMM filtering).
  /// nullopt when this family has no cheaper path — the server then serves
  /// the primary forecast even in brownout rather than inventing one.
  virtual std::optional<double> predict_brownout(unsigned steps_ahead) const {
    (void)steps_ahead;
    return std::nullopt;
  }

  /// True when the predictor's own quality monitor already doubts the
  /// primary path (guardrail SUSPECT or worse). Brownout level 1 degrades
  /// these sessions first: their expensive filtering is the work buying the
  /// least forecast quality under pressure.
  virtual bool suspect() const { return degraded(); }
};

/// A compact, self-contained model a client can download and run on its own
/// (the paper's client-side solution, §5.3: "each video client downloads its
/// own HMM and initial throughput prediction from the Prediction Engine").
struct DownloadableModel {
  double initial_mbps = 0.0;
  bool used_global_model = false;
  GaussianHmm hmm;
};

/// A trained prediction model; thread-compatible (const after training).
class PredictorModel {
 public:
  virtual ~PredictorModel() = default;

  /// Display name used in bench output ("CS2P", "HM", "GBR", ...).
  virtual std::string name() const = 0;

  /// Creates the per-session state for a new session.
  virtual std::unique_ptr<SessionPredictor> make_session(
      const SessionContext& context) const = 0;

  /// Exports the compact per-session model for client-side execution, when
  /// this predictor family supports it (CS2P and GHM do; history-based and
  /// regression baselines do not).
  virtual std::optional<DownloadableModel> downloadable_model(
      const SessionContext& context) const {
    (void)context;
    return std::nullopt;
  }
};

}  // namespace cs2p
