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
//
// Both entry points run the time-blocked kernel of serve/simd_kernels.hpp
// (DprrBlockFn), which accumulates several consecutive steps per call with a
// tile of r held in registers. DprrAccumulator keeps a ring of the last
// kBlockSteps + 1 states to feed it: a fixed O(Nx) buffer, bigger than the
// two rows the method needs, that buys one load and store of r per block
// instead of per step. The result is bit-identical to one kernel call per
// step for any blocking. DprrAccumulator serves single series: the
// single-series serving engines and a one-series training forward. Lockstep
// groups, in serving and in training, accumulate through the kernel's lane
// twin (DprrLanesFn) over the lane set's ring (serve/soa_step.hpp).

#include <span>

#include "linalg/matrix.hpp"
#include "serve/simd_kernels.hpp"

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

/// Batch computation from a full state trajectory ((T+1) x Nx, row 0 = x(0)),
/// exact rounding on the active backend.
[[nodiscard]] Vector dprr_from_states(const Matrix& states);

/// The DPRR accumulate's rounding. kExact multiplies, then adds: two
/// roundings per accumulate, the definition above, bit-identical on every
/// backend. kFloat fuses each r + x*y into one FMA rounding: the SIMD float
/// serving datapath, within simd::simd_feature_ulp_bound of kExact. The
/// scalar backend has no FMA kernel and rounds twice under both.
enum class DprrRounding { kExact, kFloat };

/// The block kernel of `rounding` on an explicit backend (simd::kernels_for
/// semantics: throws CheckError when unavailable).
[[nodiscard]] simd::DprrBlockFn dprr_block_kernel(DprrRounding rounding,
                                                  simd::Backend backend);

/// Streaming accumulator over one series at a time. A caller either steps
/// its reservoir straight into the ring (previous() -> next(), then
/// commit()) or hands in states it holds elsewhere (add). Storage is
/// allocated at construction, or by reset(nx, block) when nx outgrows it;
/// nothing else allocates.
class DprrAccumulator {
 public:
  /// Steps per kernel call: the ring holds kBlockSteps + 1 states. Chosen
  /// from the kernel ledger (BM_Kernel/dprr_block*, see README).
  static constexpr std::size_t kBlockSteps = 32;

  /// Empty: reset(nx, block) sizes it before its first series.
  DprrAccumulator() = default;

  /// Exact rounding on the active backend unless told otherwise; an explicit
  /// backend follows simd::kernels_for (throws CheckError when unavailable).
  explicit DprrAccumulator(std::size_t nx,
                           DprrRounding rounding = DprrRounding::kExact,
                           simd::Backend backend = simd::active_backend());

  /// x(k-1): the last committed state, x(0) = 0 after construction or reset.
  [[nodiscard]] std::span<const double> previous() const noexcept {
    return {ring_.data() + pending_ * nx_, nx_};
  }

  /// The row to write x(k) into before commit(). Distinct from previous().
  [[nodiscard]] std::span<double> next() noexcept {
    return {ring_.data() + (pending_ + 1) * nx_, nx_};
  }

  /// Accumulate x(k) [x(k-1), 1]^T for the state just written to next(); a
  /// full ring goes to the kernel as one block.
  void commit() noexcept;

  /// Accumulate one step from states held elsewhere. x_km1 normally equals
  /// the previous call's x_k; when it does not (bitwise), the pending block
  /// is flushed and x_km1 heads a new one, so any sequence of pairs is
  /// accumulated exactly.
  void add(std::span<const double> x_k, std::span<const double> x_km1);

  /// r over every committed step (flushes a partial block first).
  [[nodiscard]] const Vector& features() noexcept;
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

  /// Start over: r = 0, x(0) = 0, no steps.
  void reset() noexcept;

  /// Start over for a series of `nx` nodes, accumulated by `block`. The
  /// ring and r grow only past the largest `nx` they held, so one
  /// accumulator serves models of several sizes and stops allocating once
  /// it has served the largest.
  void reset(std::size_t nx, simd::DprrBlockFn block);

 private:
  void flush() noexcept;

  std::size_t nx_ = 0;
  std::size_t steps_ = 0;
  std::size_t pending_ = 0;  // committed steps not in r_: ring rows 1..pending_
  simd::DprrBlockFn block_ = nullptr;
  Vector ring_;  // (kBlockSteps + 1) x nx; row 0 = x(k0-1) of the pending block
  Vector r_;
};

}  // namespace dfr
