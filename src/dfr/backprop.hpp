#pragma once
// Backpropagation through DPRR + modular reservoir (paper Sections 3.2-3.4).
//
// Given dL/dr from the output layer, the engine produces dL/dA and dL/dB.
// Two regimes:
//
//  * Full BPTT (Eqs. 23, 30-32): iterates k = T..1 and needs every reservoir
//    state — (T+1)*Nx stored values.
//  * Truncated (Eqs. 33-36), generalized to a window w: only the last w time
//    steps contribute; gradients beyond the window are taken as zero. w = 1
//    is the paper's method (stores just x(T-1), x(T)); w = T recovers full
//    BPTT. The justification is the paper's: the last reservoir state
//    cumulatively reflects the attenuated influence of all earlier states.
//
// Both regimes are one implementation: `backprop_through_dprr` walks the last
// `window` steps of whatever state history it is given. Passing the full
// trajectory with window = T is full BPTT; passing a (w+1)-row tail with
// window = w is the truncated method. The training forward, ForwardLanes,
// keeps only such a tail, O(w * Nx) values per series, which is what
// realizes the paper's memory saving (Table 2); with window = T its tail is
// the whole trajectory.

#include <cstddef>
#include <span>
#include <vector>

#include "dfr/dprr.hpp"
#include "dfr/mask.hpp"
#include "dfr/reservoir.hpp"
#include "serve/soa_step.hpp"

namespace dfr {

/// Gradients of the loss w.r.t. the two reservoir parameters.
struct ReservoirGradients {
  double da = 0.0;
  double db = 0.0;
};

/// dL/dA, dL/dB from dL/dr.
///
/// `states`: (m+1) x Nx with rows x(k0-1), x(k0), ..., x(T) for some k0;
///           the last row must be x(T). Full BPTT passes the whole (T+1)-row
///           trajectory (row 0 = x(0) = 0).
/// `j`:      m x Nx, the masked inputs j(k0..T) aligned with `states`.
/// `dr`:     dL/dr, length Nx*(Nx+1).
/// `window`: number of trailing time steps to backpropagate through
///           (1 <= window <= m). Gradients of states older than the window
///           are treated as zero (the truncation approximation).
/// `threads`: pool slots for the O(Nx^2)-per-step feature-contribution pass;
///           node rows are independent, so the gradients are bit-identical
///           for any value. Small reservoirs (the paper's Nx = 30) fall below
///           the scheduling grain and run serially regardless.
ReservoirGradients backprop_through_dprr(const ModularReservoir& reservoir,
                                         const DfrParams& params,
                                         const Matrix& states, const Matrix& j,
                                         std::span<const double> dr,
                                         std::size_t window,
                                         unsigned threads = 1);

/// Full BPTT convenience (window = T).
ReservoirGradients backprop_full(const ModularReservoir& reservoir,
                                 const DfrParams& params, const Matrix& states,
                                 const Matrix& j, std::span<const double> dr,
                                 unsigned threads = 1);

/// Result of a memory-bounded forward pass.
struct TruncatedForward {
  Vector dprr;          // DPRR features r (accumulated on the fly)
  Matrix tail_states;   // (min(window,T)+1) x Nx: x(T-w)..x(T)
  Matrix tail_j;        // min(window,T) x Nx:     j(T-w+1)..j(T)
  std::size_t steps = 0;  // T

  /// Reservoir-state values the method keeps (the Table-2 "reservoir state"
  /// component): (window+1)*Nx, or (T+1)*Nx if T < window. The DPRR
  /// accumulator's block ring ((DprrAccumulator::kBlockSteps+1)*Nx, fixed in
  /// T) is an implementation buffer on top and is not counted.
  [[nodiscard]] std::size_t stored_state_values() const noexcept {
    return tail_states.size();
  }
};

/// The training forward: the training view of the lane set
/// (serve/soa_step.hpp), which runs up to max_lanes() series of one shape in
/// lockstep through SimdFloatDatapath's SoA stages, the batched mask,
/// preadd + nonlinearity and B-chain kernels of the active backend, and
/// accumulates every lane's DPRR through the exact lane kernel
/// (simd::Kernels::dprr_lanes_exact). On top of it, a lane's tail is read
/// from each step's state block with the lane stride, and its r once per
/// series, by dprr(). A one-series run takes the same datapath's
/// single-series step into an exact DprrAccumulator instead. Per lane, the
/// DPRR and the tail are bit-identical to stepping the series alone through
/// Mask::apply_into and ModularReservoir::step (the batched step contract of
/// simd_kernels.hpp on x86-64; each lane's r takes the per-lane exact
/// kernel's operations).
///
/// Every training pass runs many series at one (A, B): a feature pass over a
/// dataset, and an SGD epoch whose reservoir update waits for the epoch's
/// end. The B-chain, one serial chain per series, then runs kLanes chains
/// side by side in one vector, and so does the DPRR accumulate.
///
/// Memory: a lane keeps its tail, (w+1) x Nx states and w x Nx masked
/// inputs, so a group holds kLanes (w+1) Nx states at once: 8 x 2 x 30 = 480
/// values at w = 1 and Nx = 30, still independent of T.
/// stored_state_values() counts one series; the lane set's ring,
/// (SoaStep::kBlockSteps + 1) x Nx x max_lanes() values (max_lanes()
/// rounded up to SoaStep::kPadLanes), and the lanes' r are implementation
/// buffers on top, fixed in T. A one-lane forward holds neither, only the
/// single-series accumulator. All storage is allocated at construction;
/// run() allocates nothing. Not thread-safe: one per worker.
class ForwardLanes {
 public:
  /// Series per group, and the most a forward holds. Chosen from the ledger
  /// (BM_ForwardLanes, README).
  static constexpr std::size_t kLanes = 8;

  /// Storage for groups of up to `max_lanes` (1 to kLanes) series of
  /// `steps` rows and mask.channels() columns, keeping the last
  /// min(window, steps) steps of each (window = 0 keeps no tail: a feature
  /// pass). Borrows `mask`, which must outlive this object.
  ForwardLanes(const ModularReservoir& reservoir, const Mask& mask,
               std::size_t steps, std::size_t window,
               std::size_t max_lanes = kLanes);

  /// Run series[l] through lane l at `params`. Throws CheckError unless
  /// 1 <= series.size() <= max_lanes() and every series is `steps` x
  /// mask.channels().
  void run(const DfrParams& params, std::span<const Matrix* const> series);

  /// Lane l's DPRR r (raw sums, see dprr_time_scale) from the last run,
  /// valid until the next dprr() or run() call.
  [[nodiscard]] const Vector& dprr(std::size_t lane);
  /// Lane l's tail from the last run, laid out as TruncatedForward's.
  [[nodiscard]] const Matrix& tail_states(std::size_t lane) const;
  [[nodiscard]] const Matrix& tail_j(std::size_t lane) const;

  [[nodiscard]] std::size_t max_lanes() const noexcept { return max_lanes_; }
  /// (kept+1) * Nx: TruncatedForward::stored_state_values for one series.
  [[nodiscard]] std::size_t stored_state_values() const noexcept {
    return (kept_ + 1) * nx_;
  }

 private:
  /// Lane `lane`'s x(k) and j(k), every `stride`-th value from `x` and `j`,
  /// into its tail, when step k falls in it.
  void keep(std::size_t lane, std::size_t k, const double* x, const double* j,
            std::size_t stride);

  const Mask* mask_;
  Nonlinearity f_;
  simd::Backend backend_;
  simd::DprrLanesFn dprr_lanes_;
  std::size_t nx_;
  std::size_t steps_;
  std::size_t kept_;       // min(window, steps)
  std::size_t max_lanes_;
  std::size_t lanes_ = 0;  // lanes of the last run
  Vector j_;               // j(k) of a one-series run
  DprrAccumulator single_;             // r of a one-series run
  SoaStep step_;                       // a group of two or more series
  Vector lane_r_;  // dprr()'s readout of one lane
  std::vector<Matrix> tail_states_;    // one per lane, (kept+1) x Nx
  std::vector<Matrix> tail_j_;         // one per lane, kept x Nx
};

/// Forward pass that keeps only the last (window+1) states and window masked
/// inputs, accumulating the DPRR streamingly: ForwardLanes over one lane.
/// This is the memory-lean path the paper's truncated method enables;
/// combined with backprop_through_dprr it never materializes the full
/// trajectory.
TruncatedForward run_forward_truncated(const ModularReservoir& reservoir,
                                       const DfrParams& params, const Mask& mask,
                                       const Matrix& series, std::size_t window);

/// Full-trajectory forward pass (states (T+1) x Nx and masked inputs
/// T x Nx), for full BPTT and for tests.
struct FullForward {
  Vector dprr;
  Matrix states;  // (T+1) x Nx
  Matrix j;       // T x Nx

  [[nodiscard]] std::size_t stored_state_values() const noexcept {
    return states.size();
  }
};
FullForward run_forward_full(const ModularReservoir& reservoir,
                             const DfrParams& params, const Mask& mask,
                             const Matrix& series);

}  // namespace dfr
