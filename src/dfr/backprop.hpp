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
// window = w is the truncated method. `run_forward_truncated` produces such a
// tail with O(w * Nx) memory using a ring buffer, which is what realizes the
// paper's memory saving (Table 2).

#include <cstddef>

#include "dfr/dprr.hpp"
#include "dfr/mask.hpp"
#include "dfr/reservoir.hpp"

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

/// Forward pass that keeps only the last (window+1) states and window masked
/// inputs (ring buffer), accumulating the DPRR streamingly. This is the
/// memory-lean path the paper's truncated method enables; combined with
/// backprop_through_dprr it never materializes the full trajectory.
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
