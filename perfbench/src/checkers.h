// Independent checkers: the paper's equations written out again, with no
// code or header of the program under test. The harness feeds them the
// program's outputs (PRED replies, ChunkRecords) and counts disagreements.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A Gaussian-emission HMM as the MODEL verb ships it: pi_0, P, (mu, sigma).
struct CheckModel {
  std::vector<double> initial;
  std::vector<std::vector<double>> transition;
  std::vector<double> mean;
  std::vector<double> sigma;

  std::size_t states() const noexcept { return mean.size(); }
};

/// Parses the model text of a MODEL reply ("cs2p-hmm-v1 N", "initial ...",
/// N "row ..." lines, N "state mu sigma" lines). nullopt on malformed text.
std::optional<CheckModel> parse_model_text(const std::string& text);

/// Algorithm 1 of the paper, one session:
///   observe(w):  pi <- normalize(pi_{t|t-1} o e(w)), where
///                pi_{t|t-1} = pi_{t-1|t-1} P (the first observation
///                conditions pi_0 directly) and e_x(w) = N(w; mu_x, sigma_x^2);
///                when every e_x(w) pi_x underflows the belief is uniform.
///   forecast h:  mu of argmax_x (pi P^h)_x.
class ForwardFilter {
 public:
  explicit ForwardFilter(const CheckModel& model);

  void observe(double w);

  /// True when `reply` is the mean of a state that attains the maximum of
  /// pi P^h, where states within a relative 1e-9 of the maximum tie.
  bool accepts(unsigned h, double reply) const;

  /// pi P^h, normalized.
  std::vector<double> projected(unsigned h) const;

  const std::vector<double>& belief() const noexcept { return belief_; }

 private:
  const CheckModel* model_;
  std::vector<double> belief_;
  std::size_t observed_ = 0;
};

/// One downloaded chunk as the player simulator reports it.
struct ChunkView {
  double bitrate_kbps = 0.0;
  double throughput_mbps = 0.0;
  double download_seconds = 0.0;
  double rebuffer_seconds = 0.0;
};

/// The linear QoE of §7.1 (Yin et al.'s QoE_lin):
///   sum q(R_k) - lambda sum |q(R_k) - q(R_{k-1})| - mu sum rebuffer_k
///   - mu_s startup, with q(R) = R in kbps.
struct QoeWeights {
  double lambda = 1.0;
  double mu = 3000.0;
  double mu_s = 300.0;
};
double linear_qoe(const std::vector<ChunkView>& chunks, double startup_seconds,
                  const QoeWeights& weights);

/// The buffer dynamics documented in sim/player.h, recomputed per chunk:
///   d_k = R_k * chunk_s / 1000 / w_k;   rebuffer_0 = 0, startup = d_0,
///   b_1 = chunk_s; rebuffer_k = max(0, d_k - b_k),
///   b_{k+1} = min(cap, max(b_k - d_k, 0) + chunk_s).
/// Returns the recomputed chunks (download and rebuffer filled in from
/// bitrate and throughput) and the startup delay.
struct Replayed {
  std::vector<ChunkView> chunks;
  double startup_seconds = 0.0;
};
Replayed replay_buffer(const std::vector<ChunkView>& chunks, double chunk_seconds,
                       double buffer_capacity_seconds);

/// |a - b| <= tol * max(1, |a|, |b|).
bool close(double a, double b, double tol);

}  // namespace perfbench
