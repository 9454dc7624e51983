// Contiguous SoA inference kernel for a frozen GaussianHmm (DESIGN.md §16).
//
// The paper's deployment argument (§6) is that HMM prediction is "two matrix
// multiplications" per epoch — cheap enough for the request path. Making that
// true at >1M predictions/s requires the per-model constants to live in one
// contiguous, cache-line-aligned block instead of scattered heap nodes:
//
//   mu[n] | sigma[n] | log_sigma[n] | initial[n] | P^1 | P^2 | ... | P^k
//
// so belief propagation (pi · P^tau) and Gaussian emission evaluation are
// tight auto-vectorizable loops over flat arrays. One kernel is built per
// model and shared (read-only) by every session pinned to that model, so a
// cluster's sessions share one cached set of P^tau powers.
//
// Numerical contract: every kernel operation reproduces the historical
// Vec/Matrix scalar path bit-for-bit. Powers are computed with Matrix::pow
// (the same repeated-squaring the scalar filter used), the emission formula
// mirrors gaussian_log_pdf's expression tree exactly, and propagation keeps
// vec_mat's i-outer/j-inner accumulation order. The kernel sources compile
// with -ffp-contract=off (see src/hmm/CMakeLists.txt) so FMA contraction
// cannot make served forecasts depend on the compiler's contraction choices.
#pragma once

#include <cstddef>
#include <memory>

#include "hmm/model.h"

namespace cs2p {

class HmmKernel {
 public:
  /// Horizon powers P^1..P^kMaxCachedPowers are precomputed at build time
  /// (subject to the memory cap below); longer horizons fall back to an
  /// on-demand Matrix::pow with identical results.
  static constexpr unsigned kMaxCachedPowers = 16;
  /// Upper bound on the bytes spent caching powers per kernel — a 256-state
  /// model caches fewer horizons rather than megabytes of matrices.
  static constexpr std::size_t kMaxPowerCacheBytes = 256 * 1024;

  /// Validates `model` (same 1e-3 tolerance the filter constructor enforced)
  /// and freezes it into the SoA block. Throws std::invalid_argument on an
  /// invalid model. The result is immutable and safe to share across
  /// threads without synchronization.
  static std::shared_ptr<const HmmKernel> create(GaussianHmm model);

  std::size_t num_states() const noexcept { return n_; }
  const GaussianHmm& model() const noexcept { return model_; }
  unsigned cached_powers() const noexcept { return cached_powers_; }

  const double* mu() const noexcept { return mu_; }
  /// Emission sigmas, floored at kMinEmissionSigma (util/gaussian.h).
  const double* sigma() const noexcept { return sigma_; }
  /// log(sigma()) — the per-state constant of the log-density.
  const double* log_sigma() const noexcept { return log_sigma_; }
  /// 0.5 * log(2 pi), hoisted out of the emission loop.
  double half_log_2pi() const noexcept { return half_log_2pi_; }
  const double* initial() const noexcept { return initial_; }

  /// Row-major P^steps for 1 <= steps <= cached_powers(); nullptr beyond
  /// the cache (callers fall back to propagate_steps / Matrix::pow).
  const double* power(unsigned steps) const noexcept {
    if (steps == 0 || steps > cached_powers_) return nullptr;
    return powers_ + (static_cast<std::size_t>(steps) - 1) * power_stride_;
  }

  /// out[j] = sum_i in[i] * p[i*n + j] — vec_mat's accumulation order, with
  /// `p` one of the cached powers (or any row-major n x n matrix).
  void propagate(const double* in, const double* p, double* out) const noexcept;

  /// out = in · P^steps, served from the power cache when possible and
  /// Matrix::pow beyond it. Requires steps >= 1.
  void propagate_steps(const double* in, unsigned steps, double* out) const;

  /// e[i] = N(w; mu_i, sigma_i^2), bit-identical to gaussian_pdf.
  void emissions(double w, double* e) const noexcept;

 private:
  HmmKernel() = default;

  struct AlignedFree {
    void operator()(double* p) const noexcept;
  };

  GaussianHmm model_;
  std::size_t n_ = 0;
  std::size_t power_stride_ = 0;  ///< doubles per cached power (n*n padded)
  unsigned cached_powers_ = 0;
  double half_log_2pi_ = 0.0;
  /// One 64-byte-aligned allocation carved into the sections below.
  std::unique_ptr<double[], AlignedFree> block_;
  const double* mu_ = nullptr;
  const double* sigma_ = nullptr;
  const double* log_sigma_ = nullptr;
  const double* initial_ = nullptr;
  const double* powers_ = nullptr;
};

}  // namespace cs2p
