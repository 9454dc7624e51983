// The serving tier's one OBSERVE/PREDICT entry (DESIGN.md §16):
// Cs2pEngine::observe_batch and predict_batch. Each item runs its own
// predictor — per-cluster traffic rarely puts two sessions of one model in
// the same poll round, so there is nothing to share across items beyond the
// per-model kernel every session already points at.
#include <optional>

#include "core/engine.h"

namespace cs2p {
namespace {

/// The item's forecast at `steps_ahead`: the cheap brownout path when the
/// caller asked for it and the family has one, else the primary predict().
/// Clears `brownout` when the primary path served.
double serve(const SessionPredictor& predictor, unsigned steps_ahead,
             bool& brownout) {
  if (brownout) {
    if (const std::optional<double> cheap =
            predictor.predict_brownout(steps_ahead))
      return *cheap;
    brownout = false;
  }
  return predictor.predict(steps_ahead);
}

}  // namespace

void Cs2pEngine::observe_batch(std::span<ObserveBatchItem> items) {
  for (ObserveBatchItem& item : items) {
    item.predictor->observe(item.observation);
    item.prediction = serve(*item.predictor, 1, item.brownout);
  }
}

void Cs2pEngine::predict_batch(std::span<PredictBatchItem> items) {
  for (PredictBatchItem& item : items)
    item.prediction = serve(*item.predictor, item.steps_ahead, item.brownout);
}

}  // namespace cs2p
