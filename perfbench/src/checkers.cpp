#include "checkers.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

namespace perfbench {

std::optional<CheckModel> parse_model_text(const std::string& text) {
  std::istringstream in(text);
  std::string tag;
  std::size_t n = 0;
  if (!(in >> tag >> n) || tag != "cs2p-hmm-v1" || n == 0 || n > 256)
    return std::nullopt;
  CheckModel model;
  model.initial.resize(n);
  model.transition.assign(n, std::vector<double>(n));
  model.mean.resize(n);
  model.sigma.resize(n);
  if (!(in >> tag) || tag != "initial") return std::nullopt;
  for (double& p : model.initial)
    if (!(in >> p)) return std::nullopt;
  for (auto& row : model.transition) {
    if (!(in >> tag) || tag != "row") return std::nullopt;
    for (double& p : row)
      if (!(in >> p)) return std::nullopt;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(in >> tag) || tag != "state") return std::nullopt;
    if (!(in >> model.mean[i] >> model.sigma[i])) return std::nullopt;
  }
  return model;
}

namespace {

void normalize(std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    std::fill(v.begin(), v.end(), 1.0 / static_cast<double>(v.size()));
    return;
  }
  for (double& x : v) x /= sum;
}

std::vector<double> step(const std::vector<double>& pi,
                         const std::vector<std::vector<double>>& p) {
  std::vector<double> out(pi.size(), 0.0);
  for (std::size_t i = 0; i < pi.size(); ++i)
    for (std::size_t j = 0; j < pi.size(); ++j) out[j] += pi[i] * p[i][j];
  return out;
}

}  // namespace

ForwardFilter::ForwardFilter(const CheckModel& model)
    : model_(&model), belief_(model.initial) {}

void ForwardFilter::observe(double w) {
  std::vector<double> prior =
      observed_ == 0 ? belief_ : step(belief_, model_->transition);
  const double root_2pi = std::sqrt(2.0 * std::numbers::pi);
  for (std::size_t x = 0; x < prior.size(); ++x) {
    const double s = model_->sigma[x];
    const double z = (w - model_->mean[x]) / s;
    prior[x] *= std::exp(-0.5 * z * z) / (s * root_2pi);
  }
  normalize(prior);
  belief_ = std::move(prior);
  ++observed_;
}

std::vector<double> ForwardFilter::projected(unsigned h) const {
  std::vector<double> pi = belief_;
  for (unsigned k = 0; k < h; ++k) pi = step(pi, model_->transition);
  normalize(pi);
  return pi;
}

bool ForwardFilter::accepts(unsigned h, double reply) const {
  const std::vector<double> pi = projected(h);
  const double top = *std::max_element(pi.begin(), pi.end());
  for (std::size_t x = 0; x < pi.size(); ++x)
    if (pi[x] >= top * (1.0 - 1e-9) && close(model_->mean[x], reply, 1e-12))
      return true;
  return false;
}

double linear_qoe(const std::vector<ChunkView>& chunks, double startup_seconds,
                  const QoeWeights& weights) {
  double quality = 0.0, switching = 0.0, rebuffer = 0.0;
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    quality += chunks[k].bitrate_kbps;
    if (k > 0)
      switching += std::abs(chunks[k].bitrate_kbps - chunks[k - 1].bitrate_kbps);
    rebuffer += chunks[k].rebuffer_seconds;
  }
  return quality - weights.lambda * switching - weights.mu * rebuffer -
         weights.mu_s * startup_seconds;
}

Replayed replay_buffer(const std::vector<ChunkView>& chunks, double chunk_seconds,
                       double buffer_capacity_seconds) {
  Replayed out;
  out.chunks = chunks;
  double buffer = 0.0;
  for (std::size_t k = 0; k < out.chunks.size(); ++k) {
    ChunkView& c = out.chunks[k];
    c.download_seconds = c.bitrate_kbps * chunk_seconds / 1000.0 / c.throughput_mbps;
    if (k == 0) {
      out.startup_seconds = c.download_seconds;
      c.rebuffer_seconds = 0.0;
      buffer = chunk_seconds;
    } else {
      c.rebuffer_seconds = std::max(0.0, c.download_seconds - buffer);
      buffer = std::max(buffer - c.download_seconds, 0.0) + chunk_seconds;
    }
    buffer = std::min(buffer, buffer_capacity_seconds);
  }
  return out;
}

bool close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace perfbench
