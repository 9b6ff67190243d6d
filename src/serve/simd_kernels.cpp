#include "serve/simd_kernels.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dfr::simd {

// ---- portable scalar kernels ----------------------------------------------
// These perform exactly the operations of the fused scalar pipeline
// (ModularReservoir::step and the DPRR definition in dfr/dprr.hpp) in the
// same order, so the scalar backend is the bit-exact baseline every ISA
// backend is tested against.

namespace {

void preadd_nonlin_scalar(const Nonlinearity& f, double a, const double* j,
                          const double* x_prev, double* out, std::size_t nx) {
  for (std::size_t n = 0; n < nx; ++n) {
    out[n] = a * f.value(j[n] + x_prev[n]);
  }
}

// The oracle of the tiled block kernels: the plain per-step loop, run once
// per step of the block.
void dprr_block_scalar(double* r, const double* states, std::size_t steps,
                       std::size_t nx) {
  for (std::size_t k = 0; k < steps; ++k) {
    const double* x_km1 = states + k * nx;
    const double* x_k = x_km1 + nx;
    for (std::size_t i = 0; i < nx; ++i) {
      const double xi = x_k[i];
      double* row = r + i * nx;
      for (std::size_t j = 0; j < nx; ++j) row[j] += xi * x_km1[j];
      r[nx * nx + i] += xi;
    }
  }
}

void scale_quantize_scalar(const FixedPointFormat& fmt, double scale,
                           double* values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) values[i] = fmt.quantize(values[i] * scale);
}

void quant_preadd_nonlin_scalar(const Nonlinearity& f, double a,
                                const FixedPointFormat& fmt, const double* j,
                                const double* x_prev, double* out,
                                std::size_t nx) {
  for (std::size_t n = 0; n < nx; ++n) {
    out[n] = a * f.value(fmt.quantize(j[n] + x_prev[n]));
  }
}

// The oracle of the lane step entries: the per-stage loops one after another
// over the SoA blocks (see simd_kernels.hpp). The mask sums each lane from
// 0.0 in ascending channel; the chain finishes row n before row n+1 reads
// it, so `prev` simply trails one row. One multiply and one add per term, in
// the scalar pipeline's order (this TU builds without FMA-capable arch flags,
// so no contraction is possible).
void mask_lanes_scalar(const double* weights, std::size_t channels,
                       const double* u, double* j, std::size_t nx,
                       std::size_t lanes) {
  for (std::size_t i = 0; i < nx; ++i) {
    const double* wi = weights + i * channels;
    double* row = j + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) row[l] = 0.0;
    for (std::size_t v = 0; v < channels; ++v) {
      const double w = wi[v];
      const double* uv = u + v * lanes;
      for (std::size_t l = 0; l < lanes; ++l) row[l] += w * uv[l];
    }
  }
}

void lane_step_scalar(const Nonlinearity& f, double a, double b,
                      const double* weights, std::size_t channels,
                      const double* u, const double* x_prev, double* j,
                      double* x, std::size_t nx, std::size_t lanes) {
  mask_lanes_scalar(weights, channels, u, j, nx, lanes);
  preadd_nonlin_scalar(f, a, j, x_prev, x, nx * lanes);
  const double* prev = x_prev + (nx - 1) * lanes;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < lanes; ++l) row[l] = row[l] + b * prev[l];
    prev = row;
  }
}

void lane_quant_step_scalar(const Nonlinearity& f, double a, double b,
                            const FixedPointFormat& fmt, double scale,
                            const double* weights, std::size_t channels,
                            const double* u, const double* x_prev, double* j,
                            double* x, std::size_t nx, std::size_t lanes) {
  mask_lanes_scalar(weights, channels, u, j, nx, lanes);
  scale_quantize_scalar(fmt, scale, j, nx * lanes);
  quant_preadd_nonlin_scalar(f, a, fmt, j, x_prev, x, nx * lanes);
  const double* prev = x_prev + (nx - 1) * lanes;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      row[l] = fmt.quantize(row[l] + b * prev[l]);
    }
    prev = row;
  }
}

// The oracle of the lane kernels: the plain loop over steps, elements and
// lanes, a multiply then an add per element, as dprr_block_scalar per lane.
void dprr_lanes_scalar(double* r, const double* states, std::size_t steps,
                       std::size_t nx, std::size_t lanes) {
  const std::size_t block = nx * lanes;
  for (std::size_t k = 0; k < steps; ++k) {
    const double* x_km1 = states + k * block;
    const double* x_k = x_km1 + block;
    for (std::size_t i = 0; i < nx; ++i) {
      const double* xi = x_k + i * lanes;
      for (std::size_t j = 0; j < nx; ++j) {
        const double* xj = x_km1 + j * lanes;
        double* rij = r + (i * nx + j) * lanes;
        for (std::size_t l = 0; l < lanes; ++l) rij[l] += xi[l] * xj[l];
      }
      double* sum_i = r + (nx * nx + i) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) sum_i[l] += xi[l];
    }
  }
}

// The row kernel's upper triangle, four entries (i, j..j+3) per pass over row
// i, then mirrored: entry (j, i) is the same dot with each product's factors
// swapped, which rounds identically. The bias feature adds its 1.0 * 1.0
// last, as dot() over the augmented rows would.
void row_gram_scalar(const double* const* rows, std::size_t n, std::size_t p,
                     bool bias, double* k) {
  const auto put = [&](std::size_t i, std::size_t j, double s) {
    k[i * n + j] = k[j * n + i] = bias ? s + 1.0 : s;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = rows[i];
    std::size_t j = i;
    for (; j + 4 <= n; j += 4) {
      const double* x0 = rows[j];
      const double* x1 = rows[j + 1];
      const double* x2 = rows[j + 2];
      const double* x3 = rows[j + 3];
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t c = 0; c < p; ++c) {
        const double x = xi[c];
        s0 += x * x0[c];
        s1 += x * x1[c];
        s2 += x * x2[c];
        s3 += x * x3[c];
      }
      put(i, j, s0);
      put(i, j + 1, s1);
      put(i, j + 2, s2);
      put(i, j + 3, s3);
    }
    for (; j < n; ++j) {
      const double* xj = rows[j];
      double s = 0.0;
      for (std::size_t c = 0; c < p; ++c) s += xi[c] * xj[c];
      put(i, j, s);
    }
  }
}

// Row by row, every non-zero feature scattered into its column of W; a zero
// feature's term is skipped.
void back_project_scalar(const double* const* rows, std::size_t n,
                         std::size_t p, const double* a, std::size_t ny,
                         double* w, double* b) {
  std::fill(w, w + ny * p, 0.0);
  if (b != nullptr) std::fill(b, b + ny, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* xr = rows[r];
    const double* ar = a + r * ny;
    for (std::size_t f = 0; f < p; ++f) {
      const double xrf = xr[f];
      if (xrf == 0.0) continue;
      for (std::size_t c = 0; c < ny; ++c) w[c * p + f] += xrf * ar[c];
    }
    if (b != nullptr) {
      for (std::size_t c = 0; c < ny; ++c) b[c] += ar[c];
    }
  }
}

// The scalar float accumulates already round twice per accumulate (plain
// mul + add), so they double as the exact-family kernels.
constexpr Kernels kScalarKernels{Backend::kScalar,
                                 &preadd_nonlin_scalar,
                                 &dprr_block_scalar,
                                 &scale_quantize_scalar,
                                 &quant_preadd_nonlin_scalar,
                                 &dprr_block_scalar,
                                 &lane_step_scalar,
                                 &lane_quant_step_scalar,
                                 &dprr_lanes_scalar,
                                 &dprr_lanes_scalar,
                                 &row_gram_scalar,
                                 &back_project_scalar};

bool cpu_supports_avx2_fma() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // The AVX-512 TU also runs 256-bit FMA in its half-width remainder step.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

// ---- dispatch --------------------------------------------------------------

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kNeon: return "neon";
    case Backend::kAvx512: return "avx512";
  }
  return "?";
}

bool try_parse_backend(const std::string& name, Backend& out) noexcept {
  if (name == "scalar") {
    out = Backend::kScalar;
  } else if (name == "avx2") {
    out = Backend::kAvx2;
  } else if (name == "neon") {
    out = Backend::kNeon;
  } else if (name == "avx512") {
    out = Backend::kAvx512;
  } else {
    return false;
  }
  return true;
}

Backend parse_backend(const std::string& name) {
  Backend backend = Backend::kScalar;
  DFR_CHECK_MSG(try_parse_backend(name, backend),
                "unknown SIMD backend: \"" + name +
                    "\" (expected scalar|avx2|avx512|neon)");
  return backend;
}

bool backend_available(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return detail::avx2_kernels() != nullptr && cpu_supports_avx2_fma();
    case Backend::kNeon:
      // The NEON TU only compiles its kernels on aarch64, where Advanced
      // SIMD is architecturally mandatory — presence implies support.
      return detail::neon_kernels() != nullptr;
    case Backend::kAvx512:
      return detail::avx512_kernels() != nullptr && cpu_supports_avx512();
  }
  return false;
}

Backend best_backend() noexcept {
  if (backend_available(Backend::kAvx512)) return Backend::kAvx512;
  if (backend_available(Backend::kAvx2)) return Backend::kAvx2;
  if (backend_available(Backend::kNeon)) return Backend::kNeon;
  return Backend::kScalar;
}

namespace detail {

Backend resolve_env_backend(const char* value, std::string* warning) {
  if (warning) warning->clear();
  Backend requested = Backend::kScalar;
  if (!try_parse_backend(value, requested)) {
    if (warning) {
      *warning = std::string("DFR_SIMD=") + value +
                 " is not a recognized backend (expected "
                 "scalar|avx2|avx512|neon); dispatching to " +
                 backend_name(best_backend());
    }
    return best_backend();
  }
  if (!backend_available(requested)) {
    if (warning) {
      *warning = std::string("DFR_SIMD=") + value +
                 " requests a backend unavailable on this host/build; "
                 "dispatching to " +
                 backend_name(best_backend());
    }
    return best_backend();
  }
  return requested;
}

}  // namespace detail

namespace {

Backend initial_backend() {
  if (const char* env = std::getenv("DFR_SIMD")) {
    // A bad override must not degrade silently (nor take the process down):
    // warn once, naming the value and the backend actually selected.
    std::string warning;
    const Backend backend = detail::resolve_env_backend(env, &warning);
    if (!warning.empty()) log_warn(warning);
    return backend;
  }
  return best_backend();
}

Backend& active_slot() {
  static Backend backend = initial_backend();  // env read once, thread-safe
  return backend;
}

}  // namespace

Backend active_backend() { return active_slot(); }

void force_backend(Backend backend) {
  DFR_CHECK_MSG(backend_available(backend),
                std::string("cannot force unavailable SIMD backend ") +
                    backend_name(backend));
  active_slot() = backend;
}

const Kernels& kernels_for(Backend backend) {
  DFR_CHECK_MSG(backend_available(backend),
                std::string("SIMD backend unavailable on this host/build: ") +
                    backend_name(backend));
  switch (backend) {
    case Backend::kScalar: return kScalarKernels;
    case Backend::kAvx2: return *detail::avx2_kernels();
    case Backend::kNeon: return *detail::neon_kernels();
    case Backend::kAvx512: return *detail::avx512_kernels();
  }
  return kScalarKernels;
}

const Kernels& active_kernels() { return kernels_for(active_backend()); }

}  // namespace dfr::simd
