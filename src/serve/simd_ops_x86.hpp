#pragma once
// The 256- and 128-bit x86 vector-ops traits of simd_kernels_impl.hpp:
// Avx2Ops is the AVX2 kernel set's trait and the AVX-512 set's half-width
// step; Avx128Ops is Avx2Ops's half. Private to the x86 ISA translation
// units, which include this inside their arch guard (both build with at
// least -mavx2 -mfma), so each TU compiles its own copy under its own flags.
// The traits live in the unnamed namespace for the reason
// simd_kernels_impl.hpp gives.
#include <immintrin.h>

#include <cstddef>

namespace dfr::simd {
namespace {

struct Avx128Ops {
  using vec = __m128d;
  static constexpr std::size_t kWidth = 2;

  static vec load(const double* p) noexcept { return _mm_loadu_pd(p); }
  static void store(double* p, vec v) noexcept { _mm_storeu_pd(p, v); }
  static vec set1(double x) noexcept { return _mm_set1_pd(x); }
  static vec add(vec a, vec b) noexcept { return _mm_add_pd(a, b); }
  static vec sub(vec a, vec b) noexcept { return _mm_sub_pd(a, b); }
  static vec mul(vec a, vec b) noexcept { return _mm_mul_pd(a, b); }
  static vec div(vec a, vec b) noexcept { return _mm_div_pd(a, b); }
  static vec fma(vec a, vec b, vec c) noexcept { return _mm_fmadd_pd(a, b, c); }
  static vec abs(vec v) noexcept { return _mm_andnot_pd(_mm_set1_pd(-0.0), v); }
  static vec min(vec a, vec b) noexcept { return _mm_min_pd(a, b); }
  static vec max(vec a, vec b) noexcept { return _mm_max_pd(a, b); }
  static vec round(vec v) noexcept {
    return _mm_round_pd(v, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  }
  static vec zero_nan(vec probe, vec v) noexcept {
    return _mm_and_pd(v, _mm_cmp_pd(probe, probe, _CMP_ORD_Q));
  }
  static vec add_nonzero(vec acc, vec probe, vec v) noexcept {
    return _mm_blendv_pd(acc, _mm_add_pd(acc, v),
                         _mm_cmp_pd(probe, _mm_setzero_pd(), _CMP_NEQ_UQ));
  }
};

struct Avx2Ops {
  using vec = __m256d;
  using Half = Avx128Ops;
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
  // Unordered not-equal: a NaN probe counts as non-zero.
  static vec add_nonzero(vec acc, vec probe, vec v) noexcept {
    return _mm256_blendv_pd(
        acc, _mm256_add_pd(acc, v),
        _mm256_cmp_pd(probe, _mm256_setzero_pd(), _CMP_NEQ_UQ));
  }
};

}  // namespace
}  // namespace dfr::simd
