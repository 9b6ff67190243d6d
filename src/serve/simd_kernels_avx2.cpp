// AVX2+FMA kernel set: the vector-ops trait for simd_kernels_impl.hpp. This
// translation unit is compiled with per-file arch flags (-mavx2 -mfma
// -ffp-contract=off; see the root CMakeLists) on x86-64 builds and compiles
// to a nullptr stub everywhere else — runtime dispatch in simd_kernels.cpp
// decides whether it ever executes.
//
// -ffp-contract=off matters: the preadd/nonlinearity stage must round exactly
// like the scalar baseline, so only the *explicit* fma in the float DPRR
// update (where single rounding is the point, covered by the documented ULP
// bound) may fuse. The quantized kernel family never uses FMA at all — its
// contract is bit-exactness against the scalar fixed-point pipeline (see
// simd_kernels.hpp).
#include "serve/simd_kernels.hpp"

#if defined(DFR_SIMD_KERNELS_ISA) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "serve/simd_kernels_impl.hpp"

namespace dfr::simd {
namespace {

struct Avx2Ops {
  using vec = __m256d;
  static constexpr std::size_t kWidth = 4;

  static vec load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, vec v) noexcept { _mm256_storeu_pd(p, v); }
  static vec set1(double x) noexcept { return _mm256_set1_pd(x); }
  static vec add(vec a, vec b) noexcept { return _mm256_add_pd(a, b); }
  static vec sub(vec a, vec b) noexcept { return _mm256_sub_pd(a, b); }
  static vec mul(vec a, vec b) noexcept { return _mm256_mul_pd(a, b); }
  static vec div(vec a, vec b) noexcept { return _mm256_div_pd(a, b); }
  static vec fma(vec a, vec b, vec c) noexcept {
    return _mm256_fmadd_pd(a, b, c);
  }
  static vec abs(vec v) noexcept {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
  }
  static vec min(vec a, vec b) noexcept { return _mm256_min_pd(a, b); }
  static vec max(vec a, vec b) noexcept { return _mm256_max_pd(a, b); }
  // vroundpd with CUR_DIRECTION == std::nearbyint.
  static vec round(vec v) noexcept {
    return _mm256_round_pd(v, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  }
  static vec zero_nan(vec probe, vec v) noexcept {
    return _mm256_and_pd(v, _mm256_cmp_pd(probe, probe, _CMP_ORD_Q));
  }
};

constexpr Kernels kAvx2Kernels = kernel_table<Avx2Ops>(Backend::kAvx2);

}  // namespace

namespace detail {
const Kernels* avx2_kernels() noexcept { return &kAvx2Kernels; }
}  // namespace detail

}  // namespace dfr::simd

#else  // TU built without AVX2+FMA arch flags: register nothing.

namespace dfr::simd::detail {
const Kernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace dfr::simd::detail

#endif
