#pragma once
// Dot-product reservoir representation (DPRR).
//
// Converts the variable-length node trajectory into a fixed-length feature
// vector r of Nx*(Nx+1) values (paper Eqs. 18-19, 0-based here):
//
//     r[i*Nx + j]  = sum_k x(k)_i * x(k-1)_j      (i, j = 0..Nx-1)
//     r[Nx^2 + i]  = sum_k x(k)_i
//
// i.e. r = vec( sum_k x(k) [x(k-1), 1]^T ). The accumulator form needs only
// the current and previous states, which is what makes the paper's truncated
// backprop (and O(Nx) streaming inference) possible.

#include "linalg/matrix.hpp"

namespace dfr {

/// Feature dimension: Nx*(Nx+1).
[[nodiscard]] constexpr std::size_t dprr_dim(std::size_t nx) noexcept {
  return nx * (nx + 1);
}

/// Time normalization applied to the DPRR before it reaches the output layer:
/// features are divided by T (time-averaged dot products). The paper writes
/// plain sums, but its lr = 1 SGD protocol is only numerically sane when the
/// feature scale is independent of series length — with raw sums the first
/// full-rate output-layer update is O(T x^2) and the A-gradient feedback
/// diverges within one epoch. Averaging is equivalent up to a rescaling of
/// the readout weights, so ridge results are unchanged. The backprop engine
/// keeps raw-sum semantics; callers convert dL/d(avg) to dL/d(sum) by
/// multiplying with this same factor.
[[nodiscard]] constexpr double dprr_time_scale(std::size_t t_len) noexcept {
  return 1.0 / static_cast<double>(t_len);
}

/// Batch computation from a full state trajectory ((T+1) x Nx, row 0 = x(0)).
[[nodiscard]] Vector dprr_from_states(const Matrix& states);

/// Streaming accumulator: feed (x(k), x(k-1)) pairs in order.
class DprrAccumulator {
 public:
  explicit DprrAccumulator(std::size_t nx);

  /// Accumulate one step's contribution.
  void add(std::span<const double> x_k, std::span<const double> x_km1);

  [[nodiscard]] const Vector& features() const noexcept { return r_; }
  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

  /// Mutable storage for external accumulation kernels (the SIMD datapath's
  /// vectorized row update writes r directly). A caller that accumulates one
  /// step's contribution this way must pair it with count_step() so steps()
  /// stays truthful.
  [[nodiscard]] std::span<double> raw() noexcept { return r_; }
  void count_step() noexcept { ++steps_; }

  void reset() noexcept;

 private:
  std::size_t nx_;
  std::size_t steps_ = 0;
  Vector r_;
};

}  // namespace dfr
