#include "dfr/backprop.hpp"

#include <algorithm>

#include "serve/engine.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace dfr {

ReservoirGradients backprop_through_dprr(const ModularReservoir& reservoir,
                                         const DfrParams& params,
                                         const Matrix& states, const Matrix& j,
                                         std::span<const double> dr,
                                         std::size_t window, unsigned threads) {
  const std::size_t nx = reservoir.nodes();
  const std::size_t m = j.rows();  // steps represented in the buffers
  DFR_CHECK_MSG(states.cols() == nx && j.cols() == nx, "node-count mismatch");
  DFR_CHECK_MSG(states.rows() == m + 1, "states must hold one more row than j");
  DFR_CHECK_MSG(dr.size() == dprr_dim(nx), "dr has wrong length");
  DFR_CHECK_MSG(window >= 1 && window <= m, "window out of range");

  const Nonlinearity& f = reservoir.nonlinearity();
  const double* dr_mat = dr.data();           // Nx x Nx block, row i = dr[i*Nx + .]
  const double* dr_sum = dr.data() + nx * nx; // the state-sum block

  Vector g(nx, 0.0);        // dL/dx(k)   (being built)
  Vector g_next(nx, 0.0);   // dL/dx(k+1) (from previous iteration)
  Vector slope_next(nx);    // A * f~'(s(k+1)_n)
  Vector bpv(nx);
  Vector cross(nx);         // sum_i x(k+1)_i * dr[i*Nx + n]

  ReservoirGradients grads;

  // Node rows of the bpv pass are independent, so it runs on the shared pool
  // when Nx spans more than one grain-sized block (each index is O(Nx) work;
  // the paper's Nx = 30 stays on the calling thread). The recursion and the
  // parameter-gradient accumulation below are order-dependent and serial.
  constexpr std::size_t kBpvGrain = 256;

  // Iterate k = T, T-1, ..., T-window+1. Row of x(k) in `states` is m-step;
  // row of j(k) in `j` is m-1-step.
  for (std::size_t step = 0; step < window; ++step) {
    const std::size_t xk_row = m - step;
    const auto x_k = states.row(xk_row);
    const auto x_km1 = states.row(xk_row - 1);
    const auto j_k = j.row(xk_row - 1);
    const bool has_future = step > 0;  // does x(k+1) exist in this window?

    // bpv (Eq. 23 / Eq. 33): contributions of x(k)_n to the DPRR features.
    // The cross term sum_i x(k+1)_i dr[i, n] is precomputed row-major over
    // the dr block (cache-friendly, zero rows skipped); the per-n pass then
    // only walks row n of dr, which is contiguous.
    if (has_future) {
      const auto x_kp1 = states.row(xk_row + 1);
      // cross[n] = sum_i x(k+1)_i * dr[i*Nx + n]
      std::fill(cross.begin(), cross.end(), 0.0);
      for (std::size_t i = 0; i < nx; ++i) {
        const double xi = x_kp1[i];
        if (xi == 0.0) continue;
        const double* dri = dr_mat + i * nx;
        for (std::size_t n = 0; n < nx; ++n) cross[n] += xi * dri[n];
      }
    }
    const auto bpv_at = [&](std::size_t n) {
      double v = dr_sum[n];
      const double* drn = dr_mat + n * nx;
      for (std::size_t jj = 0; jj < nx; ++jj) v += x_km1[jj] * drn[jj];
      if (has_future) v += cross[n];
      bpv[n] = v;
    };
    if (threads == 1 || nx <= kBpvGrain || inside_parallel_region()) {
      // Keep the hot small-reservoir path — and fits already running as pool
      // bodies (multi-start restarts), where parallel_for would degrade to
      // serial anyway — free of std::function and pool dispatch; this runs
      // once per time step of every training sample.
      for (std::size_t n = 0; n < nx; ++n) bpv_at(n);
    } else {
      parallel_for(nx, bpv_at, {.threads = threads, .grain = kBpvGrain});
    }

    // Recursion (Eq. 30 / Eq. 34), n descending. Terms:
    //   + B * g(k)_{n+1}                (within-step chain; for n = Nx the
    //     chain continues into x(k+1)_1 via the delay-line wrap)
    //   + A f~'(s(k+1)_n) * g(k+1)_n    (through-f path into the next step)
    for (std::size_t nn = nx; nn > 0; --nn) {
      const std::size_t n = nn - 1;
      double v = bpv[n];
      if (n + 1 < nx) {
        v += params.b * g[n + 1];
      } else if (has_future) {
        v += params.b * g_next[0];  // x(k+1)_1 = A f~(s) + B x(k)_{Nx}
      }
      if (has_future) v += slope_next[n] * g_next[n];
      g[n] = v;
    }

    // Parameter gradients (Eqs. 31-32 / 35-36) for this k.
    double prev_node = x_km1[nx - 1];  // x(k)_0 = x(k-1)_{Nx}
    for (std::size_t n = 0; n < nx; ++n) {
      const double s = j_k[n] + x_km1[n];
      grads.da += f.value(s) * g[n];
      grads.db += prev_node * g[n];
      prev_node = x_k[n];
    }

    // Prepare the next (older) step: g(k+1) <- g(k); slopes of s(k)_n.
    for (std::size_t n = 0; n < nx; ++n) {
      slope_next[n] = params.a * f.derivative(j_k[n] + x_km1[n]);
    }
    std::swap(g, g_next);
  }
  return grads;
}

ReservoirGradients backprop_full(const ModularReservoir& reservoir,
                                 const DfrParams& params, const Matrix& states,
                                 const Matrix& j, std::span<const double> dr,
                                 unsigned threads) {
  return backprop_through_dprr(reservoir, params, states, j, dr, j.rows(),
                               threads);
}

ForwardLanes::ForwardLanes(const ModularReservoir& reservoir, const Mask& mask,
                           std::size_t steps, std::size_t window,
                           std::size_t max_lanes)
    : mask_(&mask),
      f_(reservoir.nonlinearity()),
      backend_(simd::active_backend()),
      dprr_lanes_(simd::kernels_for(backend_).dprr_lanes_exact),
      nx_(reservoir.nodes()),
      steps_(steps),
      kept_(std::min(window, steps)),
      max_lanes_(max_lanes),
      j_(nx_, 0.0),
      single_(nx_, DprrRounding::kExact, backend_) {
  DFR_CHECK_MSG(mask.nodes() == nx_, "mask rows != reservoir node count");
  DFR_CHECK_MSG(steps >= 1, "series must have at least one step");
  DFR_CHECK_MSG(max_lanes >= 1 && max_lanes <= kLanes,
                "lockstep lane count must be in [1, kLanes]");
  if (max_lanes > 1) {
    step_.resize(nx_, mask.channels(), max_lanes);
    lane_r_.assign(dprr_dim(nx_), 0.0);
  }
  if (kept_ > 0) {
    tail_states_.assign(max_lanes, Matrix(kept_ + 1, nx_));
    tail_j_.assign(max_lanes, Matrix(kept_, nx_));
  }
}

void ForwardLanes::run(const DfrParams& params,
                       std::span<const Matrix* const> series) {
  const std::size_t n = series.size();
  DFR_CHECK_MSG(n >= 1 && n <= max_lanes_,
                "lockstep group size must be in [1, max_lanes()]");
  for (const Matrix* s : series) {
    DFR_CHECK_MSG(s != nullptr && s->rows() == steps_ &&
                      s->cols() == mask_->channels(),
                  "lockstep series must be steps x mask channels");
  }
  lanes_ = n;
  const SimdFloatDatapath datapath(*mask_, params, f_, backend_);

  if (n == 1) {
    // One series runs the single-series step, straight into the
    // accumulator's ring: the same operations as one lane of the lane set,
    // which would pad it to SoaStep::kPadLanes lanes, all but one wasted.
    single_.reset();
    for (std::size_t k = 1; k <= steps_; ++k) {
      datapath.mask_into(series[0]->row(k - 1), j_);
      datapath.step(j_, single_.previous(), single_.next());  // x(k)
      keep(0, k, single_.next().data(), j_.data(), 1);
      single_.commit();
    }
    return;
  }

  step_.start(n, dprr_lanes_);
  for (std::size_t k = 1; k <= steps_; ++k) {
    const double* x = step_.advance(datapath, series, k - 1);  // x(k), j(k)
    for (std::size_t l = 0; l < n; ++l) {
      keep(l, k, x + l, step_.masked() + l, step_.width());
    }
  }
}

void ForwardLanes::keep(std::size_t lane, std::size_t k, const double* x,
                        const double* j, std::size_t stride) {
  // x(k) for k >= head fills tail row k - head; j(k) for k > head fills row
  // k - head - 1. With head = 0, row 0 is x(0) = 0 from construction.
  const std::size_t head = steps_ - kept_;
  if (kept_ == 0 || k < head) return;
  double* x_row = tail_states_[lane].row(k - head).data();
  for (std::size_t i = 0; i < nx_; ++i) x_row[i] = x[i * stride];
  if (k == head) return;
  double* j_row = tail_j_[lane].row(k - head - 1).data();
  for (std::size_t i = 0; i < nx_; ++i) j_row[i] = j[i * stride];
}

const Vector& ForwardLanes::dprr(std::size_t lane) {
  DFR_CHECK_MSG(lane < lanes_, "lane index beyond the last group size");
  if (lanes_ == 1) return single_.features();
  step_.read_dprr(lane, lane_r_.data());
  return lane_r_;
}

const Matrix& ForwardLanes::tail_states(std::size_t lane) const {
  DFR_CHECK_MSG(lane < lanes_ && kept_ > 0, "no tail for this lane");
  return tail_states_[lane];
}

const Matrix& ForwardLanes::tail_j(std::size_t lane) const {
  DFR_CHECK_MSG(lane < lanes_ && kept_ > 0, "no tail for this lane");
  return tail_j_[lane];
}

TruncatedForward run_forward_truncated(const ModularReservoir& reservoir,
                                       const DfrParams& params, const Mask& mask,
                                       const Matrix& series, std::size_t window) {
  DFR_CHECK_MSG(series.rows() >= 1, "series must have at least one step");
  DFR_CHECK_MSG(window >= 1, "window must be at least 1");
  ForwardLanes forward(reservoir, mask, series.rows(), window, 1);
  const Matrix* lane = &series;
  forward.run(params, std::span<const Matrix* const>(&lane, 1));

  TruncatedForward out;
  out.steps = series.rows();
  out.dprr = forward.dprr(0);
  out.tail_states = forward.tail_states(0);
  out.tail_j = forward.tail_j(0);
  return out;
}

FullForward run_forward_full(const ModularReservoir& reservoir,
                             const DfrParams& params, const Mask& mask,
                             const Matrix& series) {
  FullForward out;
  out.j = mask.apply_series(series);
  out.states = reservoir.run(out.j, params);
  out.dprr = dprr_from_states(out.states);
  return out;
}

}  // namespace dfr
