#pragma once
// One reservoir time step over up to kBatchedMaxLanes series at once, in
// structure-of-arrays form: the step body shared by the batched serving
// engine (serve/engine.hpp, BatchedEngine) and the lockstep training forward
// (dfr/backprop.hpp, ForwardLanes).
//
// Blocks are indexed [node*lanes + lane], where `lanes` is the number of
// series a step is given. advance() gathers each lane's input row, then runs
// a SIMD datapath's two SoA stages over the whole block: mask_soa (the mask
// and, for the quantized family, its round-to-format) -> step_soa (preadd +
// nonlinearity, then the cross-lane B-chain). The state blocks are this
// object's own pair, or any two the caller holds: the training forward
// steps straight into its SoA ring of recent states, whose time blocks run
// through the lane DPRR kernel as they are; the batched engine gathers each
// lane's states out of its own pair into that lane's DPRR. Storage is
// allocated at construction, or by resize() when a shape outgrows it;
// nothing else allocates.

#include <algorithm>
#include <span>
#include <utility>

#include "linalg/matrix.hpp"

namespace dfr {

class SoaStep {
 public:
  /// Empty: resize() sizes it before its first step.
  SoaStep() = default;

  SoaStep(std::size_t nx, std::size_t channels, std::size_t max_lanes) {
    resize(nx, channels, max_lanes);
  }

  /// Blocks for up to `max_lanes` series of `nx` nodes and `channels`
  /// inputs. They grow only past the largest shape they held, so one
  /// SoaStep serves models of several shapes and stops allocating once it
  /// has served the largest.
  void resize(std::size_t nx, std::size_t channels, std::size_t max_lanes) {
    nx_ = nx;
    channels_ = channels;
    u_.resize(channels * max_lanes);
    j_.resize(nx * max_lanes);
    x_prev_.resize(nx * max_lanes);
    x_.resize(nx * max_lanes);
  }

  /// x(0) = 0 in each of the first `lanes` lanes of the own state pair.
  void start(std::size_t lanes) noexcept {
    std::fill_n(x_.begin(), nx_ * lanes, 0.0);
  }

  /// One step over the own state pair: lane l reads row k of *series[l]
  /// (series.size() == the start() lane count). The state becomes x(k+1)
  /// and the one before it previous().
  template <typename Datapath>
  void advance(const Datapath& datapath, std::span<const Matrix* const> series,
               std::size_t k) {
    std::swap(x_prev_, x_);  // pointer swap: no allocation
    advance(datapath, series, k, x_prev_.data(), x_.data());
  }

  /// One step from the caller's state block `x_prev` into its block `x_out`
  /// (each Nx x series.size(), neither aliasing the other): lane l reads row
  /// k of *series[l], every series channels() wide.
  template <typename Datapath>
  void advance(const Datapath& datapath, std::span<const Matrix* const> series,
               std::size_t k, const double* x_prev, double* x_out) {
    const std::size_t n = series.size();
    // Gather this time step's raw inputs into SoA (channels*n cheap copies),
    // then mask all lanes at once: j_[i*n + l] = (M u_l(k))_i. The batched
    // mask kernel preserves the scalar dot() order per lane, so this stage
    // stays bit-identical to per-lane Mask::apply_into.
    for (std::size_t l = 0; l < n; ++l) {
      const auto row = series[l]->row(k);
      for (std::size_t v = 0; v < channels_; ++v) u_[v * n + l] = row[v];
    }
    datapath.mask_soa(u_.data(), j_.data(), n);
    datapath.step_soa(j_.data(), x_prev, x_out, n);
  }

  /// The last step's masked input block j(k), and the own pair's state x(k)
  /// and the state before it, x(k-1).
  [[nodiscard]] const double* masked() const noexcept { return j_.data(); }
  [[nodiscard]] const double* state() const noexcept { return x_.data(); }
  [[nodiscard]] const double* previous() const noexcept {
    return x_prev_.data();
  }

 private:
  std::size_t nx_ = 0;
  std::size_t channels_ = 0;
  Vector u_;       // raw inputs, channels x lanes
  Vector j_;       // masked inputs, nx x lanes
  Vector x_prev_;  // x(k-1), nx x lanes
  Vector x_;       // x(k), nx x lanes
};

}  // namespace dfr
