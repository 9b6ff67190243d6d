// AVX2+FMA kernel set: simd_kernels_impl.hpp over Avx2Ops, with Avx128Ops
// as its half-width step (both in simd_ops_x86.hpp). This translation unit
// is compiled with per-file arch flags (-mavx2 -mfma -ffp-contract=off; see
// the root CMakeLists) on x86-64 builds and compiles to a nullptr stub
// everywhere else — runtime dispatch in simd_kernels.cpp decides whether it
// ever executes.
//
// -ffp-contract=off matters: the preadd/nonlinearity stage must round exactly
// like the scalar baseline, so only the *explicit* fma in the float DPRR
// update (where single rounding is the point, covered by the documented ULP
// bound) may fuse. The quantized kernel family never uses FMA at all — its
// contract is bit-exactness against the scalar fixed-point pipeline (see
// simd_kernels.hpp).
#include "serve/simd_kernels.hpp"

#if defined(DFR_SIMD_KERNELS_ISA) && defined(__AVX2__) && defined(__FMA__)

#include "serve/simd_kernels_impl.hpp"
#include "serve/simd_ops_x86.hpp"

namespace dfr::simd {
namespace {

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
