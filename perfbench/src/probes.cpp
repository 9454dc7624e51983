// Replay probes of the traced runs: each layer's public entry point called
// directly on the workload's own sessions and engine, outside every timed
// phase, so a layer's cost can be read apart from the ones around it.
#include <algorithm>
#include <map>

#include "hmm/baum_welch.h"
#include "net/session_table.h"
#include "workloads.h"

namespace perfbench {

using cs2p::Session;

namespace {

constexpr unsigned kHorizon = 5;

std::vector<double> chunk_trace(const Session& s, double scale) {
  const std::size_t n = std::min(video().num_chunks, s.throughput_mbps.size());
  std::vector<double> out(s.throughput_mbps.begin(),
                          s.throughput_mbps.begin() + static_cast<std::ptrdiff_t>(n));
  for (double& w : out) w *= scale;
  return out;
}

double per(double total_ns, double count) { return total_ns / std::max(1.0, count); }

void probe_engine(const ProbeInputs& in, Result& r) {
  const World& w = *in.world;
  const auto& sessions = in.sessions;

  // core.session_model: the cluster match of every HELLO.
  double model_ns = 0, models = 0;
  for (const Session* s : sessions)  // first use may train a cluster: untimed
    w.engine->session_model(s->features, s->start_hour);
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t = now_ns();
    for (const Session* s : sessions) w.engine->session_model(s->features, s->start_hour);
    model_ns += static_cast<double>(now_ns() - t);
    models += static_cast<double>(sessions.size());
  }
  r.set("core.session_model_ns", per(model_ns, models), "ns");

  // predictors: the scalar observe + predict(1), and predict(h), h = 2..5.
  double op_ns = 0, ops = 0, h_ns = 0, hs = 0;
  for (const Session* s : sessions) {
    const std::vector<double> trace = chunk_trace(*s, in.scale);
    auto a = w.model->make_session(cs2p::SessionContext::from(*s));
    std::int64_t t = now_ns();
    for (double x : trace) {
      a->observe(x);
      a->predict(1);
    }
    op_ns += static_cast<double>(now_ns() - t);
    ops += static_cast<double>(trace.size());
    auto b = w.model->make_session(cs2p::SessionContext::from(*s));
    for (double x : trace) {
      b->observe(x);
      t = now_ns();
      for (unsigned h = 2; h <= kHorizon; ++h) b->predict(h);
      h_ns += static_cast<double>(now_ns() - t);
      hs += kHorizon - 1;
    }
  }
  r.set("predictors.observe_predict_ns", per(op_ns, ops), "ns");
  r.set("predictors.predict_h_ns", per(h_ns, hs), "ns");

  // core.observe_batch / predict_batch at the measured round width, over
  // groups of distinct sessions.
  const std::size_t width = std::max<std::size_t>(1, in.width);
  double ob_ns = 0, ob_items = 0, pb_ns = 0, pb_items = 0;
  for (std::size_t g = 0; g + width <= sessions.size(); g += width) {
    std::vector<std::unique_ptr<cs2p::SessionPredictor>> group;
    std::vector<std::vector<double>> traces;
    for (std::size_t k = 0; k < width; ++k) {
      group.push_back(w.model->make_session(cs2p::SessionContext::from(*sessions[g + k])));
      traces.push_back(chunk_trace(*sessions[g + k], in.scale));
    }
    std::vector<cs2p::ObserveBatchItem> observe(width);
    std::vector<cs2p::PredictBatchItem> predict(width * (kHorizon - 1));
    for (std::size_t c = 0; c < video().num_chunks; ++c) {
      for (std::size_t k = 0; k < width; ++k)
        observe[k] = {group[k].get(), traces[k][c], 0.0, false};
      std::int64_t t = now_ns();
      cs2p::Cs2pEngine::observe_batch(observe);
      ob_ns += static_cast<double>(now_ns() - t);
      ob_items += static_cast<double>(width);
      for (std::size_t k = 0; k < width; ++k)
        for (unsigned h = 2; h <= kHorizon; ++h)
          predict[k * (kHorizon - 1) + h - 2] = {group[k].get(), h, 0.0, false};
      t = now_ns();
      cs2p::Cs2pEngine::predict_batch(predict);
      pb_ns += static_cast<double>(now_ns() - t);
      pb_items += static_cast<double>(predict.size());
    }
  }
  r.set("core.observe_batch_ns_per_item", per(ob_ns, ob_items), "ns");
  r.set("core.predict_batch_ns_per_item", per(pb_ns, pb_items), "ns");

  // net.session_table: with_sessions at the same width over live entries.
  cs2p::SessionTable table(cs2p::SessionTableConfig{16, 0, 64});
  std::vector<std::uint64_t> ids;
  for (const Session* s : sessions)
    ids.push_back(table.emplace([&](std::uint64_t) {
      cs2p::SessionTable::Entry e;
      e.predictor = w.model->make_session(cs2p::SessionContext::from(*s));
      e.owner = w.model;
      return e;
    }));
  double lookup_ns = 0, lookups = 0;
  for (int rep = 0; rep < 50; ++rep)
    for (std::size_t g = 0; g + width <= ids.size(); g += width) {
      const std::int64_t t = now_ns();
      table.with_sessions(std::span<const std::uint64_t>(ids.data() + g, width),
                          [](std::span<cs2p::SessionTable::Entry* const>) {});
      lookup_ns += static_cast<double>(now_ns() - t);
      lookups += static_cast<double>(width);
    }
  r.set("net.session_table.lookup_ns", per(lookup_ns, lookups), "ns");
}

/// Trains each of the largest clusters of `sessions` (at most 8, at least 4
/// sessions each) with train_hmm, as the trainer would retrain them.
void report_hmm_training(const World& world, const std::vector<const Session*>& sessions,
                         double scale, Result& r) {
  std::map<std::string, std::vector<std::vector<double>>> clusters;
  for (const Session* s : sessions) {
    const cs2p::SessionModelRef ref = world.engine->session_model(s->features, s->start_hour);
    if (ref.used_global_model) continue;
    std::vector<double> seq = s->throughput_mbps;
    for (double& x : seq) x *= scale;
    clusters[ref.cluster_label].push_back(std::move(seq));
  }
  std::vector<std::pair<std::string, std::vector<std::vector<double>>*>> largest;
  for (auto& [label, seqs] : clusters)
    if (seqs.size() >= 4) largest.emplace_back(label, &seqs);
  std::stable_sort(largest.begin(), largest.end(), [](const auto& a, const auto& b) {
    return a.second->size() > b.second->size();
  });
  if (largest.size() > 8) largest.resize(8);
  double ms = 0, iterations = 0;
  for (auto& [label, seqs] : largest) {
    // What the trainer retrains on: at most a reservoir of 32 sequences,
    // less every 4th held out for the canary.
    std::vector<std::vector<double>> train;
    for (std::size_t i = 0; i < seqs->size() && i < 32; ++i)
      if (i % 4 != 0) train.push_back((*seqs)[i]);
    const std::int64_t t = now_ns();
    const cs2p::BaumWelchResult result =
        cs2p::train_hmm(train, world.engine->config().hmm);
    ms += static_cast<double>(now_ns() - t) * 1e-6;
    iterations += result.iterations_run;
  }
  const double n = std::max<double>(1.0, static_cast<double>(largest.size()));
  r.set("hmm.train_ms", ms / n, "ms");
  r.set("hmm.em_iterations", iterations / n, "count");
}

}  // namespace

void run_probes(const ProbeInputs& in, Result& r) {
  probe_engine(in, r);
  report_hmm_training(*in.world, in.sessions, in.scale, r);
}

}  // namespace perfbench
