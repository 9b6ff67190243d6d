// AVX-512 kernel set (512-bit, 8 doubles per vector): the vector-ops trait
// for simd_kernels_impl.hpp, with Avx2Ops (simd_ops_x86.hpp) as its 256-bit
// half-width step. This translation unit is compiled with per-file arch
// flags (-mavx512f -mavx512bw -mfma -ffp-contract=off; see the root
// CMakeLists) on x86-64 builds and compiles to a nullptr stub everywhere
// else — runtime dispatch in simd_kernels.cpp gates execution on
// __builtin_cpu_supports("avx512f")/("avx512bw")/("fma").
//
// Same contracts as the AVX2 TU, twice the width:
//  * float family — the preadd/nonlinearity stage rounds exactly like the
//    scalar baseline (-ffp-contract=off; only the explicit fma in the DPRR
//    update fuses, covered by the documented ULP bound);
//  * quantized family — bit-exact against the scalar fixed-point pipeline,
//    no FMA anywhere (see simd_kernels.hpp).
#include "serve/simd_kernels.hpp"

#if defined(DFR_SIMD_KERNELS_ISA) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__FMA__)

#include <immintrin.h>

#include "serve/simd_kernels_impl.hpp"
#include "serve/simd_ops_x86.hpp"

namespace dfr::simd {
namespace {

struct Avx512Ops {
  using vec = __m512d;
  using Half = Avx2Ops;
  static constexpr std::size_t kWidth = 8;

  static vec load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, vec v) noexcept { _mm512_storeu_pd(p, v); }
  static vec set1(double x) noexcept { return _mm512_set1_pd(x); }
  static vec add(vec a, vec b) noexcept { return _mm512_add_pd(a, b); }
  static vec sub(vec a, vec b) noexcept { return _mm512_sub_pd(a, b); }
  static vec mul(vec a, vec b) noexcept { return _mm512_mul_pd(a, b); }
  static vec div(vec a, vec b) noexcept { return _mm512_div_pd(a, b); }
  static vec fma(vec a, vec b, vec c) noexcept {
    return _mm512_fmadd_pd(a, b, c);
  }
  static vec abs(vec v) noexcept { return _mm512_abs_pd(v); }
  static vec min(vec a, vec b) noexcept { return _mm512_min_pd(a, b); }
  static vec max(vec a, vec b) noexcept { return _mm512_max_pd(a, b); }
  // roundscale with imm 0x0C (MXCSR rounding mode, suppress precision
  // exceptions) == std::nearbyint.
  static vec round(vec v) noexcept {
    return _mm512_roundscale_pd(v,
                                _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  }
  // mask_mov from an explicit zero vector, not maskz_mov: GCC's maskz
  // implementation reads an undefined passthrough and trips
  // -Wmaybe-uninitialized.
  static vec zero_nan(vec probe, vec v) noexcept {
    return _mm512_mask_mov_pd(_mm512_setzero_pd(),
                              _mm512_cmp_pd_mask(probe, probe, _CMP_ORD_Q), v);
  }
  // One masked add; unordered not-equal counts a NaN probe as non-zero.
  static vec add_nonzero(vec acc, vec probe, vec v) noexcept {
    return _mm512_mask_add_pd(
        acc, _mm512_cmp_pd_mask(probe, _mm512_setzero_pd(), _CMP_NEQ_UQ), acc,
        v);
  }
};

constexpr Kernels kAvx512Kernels = kernel_table<Avx512Ops>(Backend::kAvx512);

}  // namespace

namespace detail {
const Kernels* avx512_kernels() noexcept { return &kAvx512Kernels; }
}  // namespace detail

}  // namespace dfr::simd

#else  // TU built without AVX-512 arch flags: register nothing.

namespace dfr::simd::detail {
const Kernels* avx512_kernels() noexcept { return nullptr; }
}  // namespace dfr::simd::detail

#endif
