// NEON (Advanced SIMD) kernel set for aarch64, where 2-lane double vectors
// and vfmaq_f64 are architecturally guaranteed: the vector-ops trait for
// simd_kernels_impl.hpp. Compiled with -ffp-contract=off per-file (see the
// root CMakeLists) so only the explicit fma in the float DPRR update fuses;
// compiles to a nullptr stub on other architectures, mirroring
// simd_kernels_avx2.cpp. The quantized kernel family never uses FMA — its
// contract is bit-exactness against the scalar fixed-point pipeline (see
// simd_kernels.hpp).
#include "serve/simd_kernels.hpp"

#if defined(DFR_SIMD_KERNELS_ISA) && defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "serve/simd_kernels_impl.hpp"

namespace dfr::simd {
namespace {

struct NeonOps {
  using vec = float64x2_t;
  static constexpr std::size_t kWidth = 2;

  static vec load(const double* p) noexcept { return vld1q_f64(p); }
  static void store(double* p, vec v) noexcept { vst1q_f64(p, v); }
  static vec set1(double x) noexcept { return vdupq_n_f64(x); }
  static vec add(vec a, vec b) noexcept { return vaddq_f64(a, b); }
  static vec sub(vec a, vec b) noexcept { return vsubq_f64(a, b); }
  static vec mul(vec a, vec b) noexcept { return vmulq_f64(a, b); }
  static vec div(vec a, vec b) noexcept { return vdivq_f64(a, b); }
  static vec fma(vec a, vec b, vec c) noexcept { return vfmaq_f64(c, a, b); }
  static vec abs(vec v) noexcept { return vabsq_f64(v); }
  // vminq/vmaxq propagate NaN, unlike x86 min/max; zero_nan still sees the
  // original NaN lanes, so the quantizer's result is the same.
  static vec min(vec a, vec b) noexcept { return vminq_f64(a, b); }
  static vec max(vec a, vec b) noexcept { return vmaxq_f64(a, b); }
  // Round to integral, current mode == std::nearbyint.
  static vec round(vec v) noexcept { return vrndiq_f64(v); }
  // vceqq on self is false only for NaN lanes.
  static vec zero_nan(vec probe, vec v) noexcept {
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(v), vceqq_f64(probe, probe)));
  }
  // vceqq against 0.0 is true for ±0.0 and false for NaN.
  static vec add_nonzero(vec acc, vec probe, vec v) noexcept {
    return vbslq_f64(vceqq_f64(probe, vdupq_n_f64(0.0)), acc,
                     vaddq_f64(acc, v));
  }
};

constexpr Kernels kNeonKernels = kernel_table<NeonOps>(Backend::kNeon);

}  // namespace

namespace detail {
const Kernels* neon_kernels() noexcept { return &kNeonKernels; }
}  // namespace detail

}  // namespace dfr::simd

#else  // TU built for a non-aarch64 target: register nothing.

namespace dfr::simd::detail {
const Kernels* neon_kernels() noexcept { return nullptr; }
}  // namespace dfr::simd::detail

#endif
