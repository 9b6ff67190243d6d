#pragma once
// SIMD kernels with runtime CPU dispatch: the reservoir-step datapath of
// serving and training, and the two exact products of the ridge readout fit
// (RowGramFn, BackProjectFn; see "Ridge readout products" below).
//
// The per-step serving cost splits into three stages. Two of them are
// data-parallel across the Nx virtual nodes and vectorize:
//
//   * the masked-input preadd and nonlinearity  v_n = A * f~( j(k)_n + x(k-1)_n )
//   * the DPRR accumulate                       r[i*Nx+j] += x(k)_i * x(k-1)_j
//     (Nx^2 multiply-adds per time step — the dominant cost of both serving
//     and training)
//
// The third stage, the B-chain x(k)_n = v_n + B * x(k)_{n-1}, serializes on
// its own output and stays a scalar pass (SimdFloatDatapath::step runs it
// after the vectorized preadd/nonlinearity).
//
// The DPRR stage is one block entry per rounding (DprrBlockFn): a call
// accumulates `steps` consecutive time steps and keeps a tile of r in
// registers across them, so r is loaded and stored once per block instead
// of once per step. Each element of r still sees the same operations in the
// same time order, so a block is bit-identical to its steps run one call
// each, under either rounding. DprrAccumulator (dfr/dprr.hpp) feeds it from
// a ring of recent states, and dprr_from_states runs it over a stored
// trajectory. Its twin over lanes, DprrLanesFn, runs the accumulate of many
// series at once, also one entry per rounding, with the vectors across
// series (see the batched family below).
//
// Backends are selected at RUNTIME, not by compile flags: the ISA-specific
// translation units (simd_kernels_avx2.cpp, simd_kernels_avx512.cpp,
// simd_kernels_neon.cpp) are built with per-file arch flags and register
// themselves; dispatch picks the best kernel set the running CPU supports.
// The ISA TUs share one kernel body, the templates of simd_kernels_impl.hpp
// over a per-ISA vector-ops trait; each TU holds only its table and trait
// (the x86 TUs share their 256- and 128-bit traits, simd_ops_x86.hpp).
// The `DFR_SIMD` environment variable (`scalar`, `avx2`, `avx512`, or
// `neon`, read once at first use) or force_backend() (tests) override the
// choice; forcing an unavailable backend throws CheckError.
//
// Equivalence contract vs the scalar FloatDatapath pipeline:
//   * The mask stage is shared code and the preadd stage performs the same
//     IEEE-754 additions lane-wise: both are bit-exact on every backend
//     (test_simd.cpp checks the preadd/nonlinearity stage with an
//     exact-match assertion).
//   * The step stage as a whole (preadd, nonlinearity, B-chain) performs the
//     scalar pipeline's operations in the same order; ISA translation units
//     are compiled with -ffp-contract=off, so no FMA contraction can change
//     rounding and the stage is bit-exact on x86-64. (On aarch64 the
//     compiler may contract the *scalar* reference itself, so only the ULP
//     bound below is guaranteed.)
//   * The float DPRR block deliberately uses explicit FMA where available:
//     each accumulate rounds once where the scalar path rounds twice, so a
//     feature accumulated over T steps may drift by O(T) rounding units of
//     the accumulated magnitudes. The documented bound: every finalized
//     feature agrees with the scalar pipeline within
//     simd_feature_ulp_bound(T) ulps of the feature vector's
//     largest-magnitude entry (ulps of max|r|, not of the individual
//     feature — cross products can cancel arbitrarily close to zero while
//     the accumulation error scales with the summands). Asserted by
//     test_simd.cpp across every nonlinearity and odd Nx.
//
// Quantized kernel family (SimdQuantizedDatapath) — EXACT contract:
//   Unlike the float family, every quantized kernel is bit-identical to the
//   scalar QuantizedDatapath on every backend. Fixed-point rounding makes
//   that achievable: the vector round-to-format performs the same IEEE-754
//   operations as FixedPointFormat::quantize lane-wise (scaling by a power
//   of two is exact whether done by multiply or divide, vector
//   round-to-nearest matches std::nearbyint under the current rounding
//   mode, and saturation compares reproduce the scalar clamp), and the
//   exact DPRR block deliberately does NOT use FMA — it rounds twice per
//   accumulate exactly like the scalar reference, so no ULP drift exists to
//   bound. test_simd_quant.cpp asserts EXPECT_EQ-strict
//   equivalence across formats, nonlinearities, sizes, and backends. (On
//   aarch64 the scalar reference TU itself may FMA-contract the B-chain;
//   x86-64 baseline code cannot, so the strict contract is asserted there.)

#include <cstddef>
#include <string>

#include "dfr/nonlinearity.hpp"
#include "fixedpoint/fixed.hpp"

namespace dfr::simd {

enum class Backend { kScalar, kAvx2, kNeon, kAvx512 };

/// "scalar" / "avx2" / "neon" / "avx512".
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// Inverse of backend_name. Throws CheckError on unknown names.
[[nodiscard]] Backend parse_backend(const std::string& name);

/// Non-throwing parse: true and sets `out` on a recognized name.
[[nodiscard]] bool try_parse_backend(const std::string& name,
                                     Backend& out) noexcept;

/// v[n] = a * f~( j[n] + x_prev[n] ) for n in [0, nx). `out` must not alias
/// the inputs. The B-chain term is NOT applied here (it serializes; see
/// SimdFloatDatapath::step).
using PreaddNonlinFn = void (*)(const Nonlinearity& f, double a,
                                const double* j, const double* x_prev,
                                double* out, std::size_t nx);

/// Time-blocked DPRR accumulate over `steps` consecutive time steps.
/// `states` points at steps+1 contiguous rows of nx doubles, x(k0-1), x(k0),
/// ..., x(k0+steps-1), and for each k in time order
///   r[i*nx + j] += x(k)_i * x(k-1)_j   and   r[nx*nx + i] += x(k)_i.
/// `r` has dprr_dim(nx) = nx*(nx+1) entries and must not alias `states`.
/// steps = 1 is one reservoir step; any block is bit-identical to running
/// its steps one call each.
using DprrBlockFn = void (*)(double* r, const double* states, std::size_t steps,
                             std::size_t nx);

/// In-place vector round-to-format: v[i] = fmt.quantize(v[i] * scale) for i
/// in [0, n). Bit-identical to calling FixedPointFormat::quantize per
/// element (round-to-nearest under the current rounding mode, saturation to
/// the two's-complement range, NaN -> 0). Serves both quantized stages that
/// are a pure elementwise scale+round: the masked-input quantization
/// (scale = 1/state_scale) and the feature finalization
/// (scale = dprr_time_scale(T)/feature_scale).
using ScaleQuantizeFn = void (*)(const FixedPointFormat& fmt, double scale,
                                 double* values, std::size_t n);

/// Quantized masked-input preadd + nonlinearity:
/// out[n] = a * f~( fmt.quantize(j[n] + x_prev[n]) ). The quantized B-chain
/// (with its per-node round-to-format) serializes and stays a scalar pass —
/// see SimdQuantizedDatapath::step.
using QuantPreaddNonlinFn = void (*)(const Nonlinearity& f, double a,
                                     const FixedPointFormat& fmt,
                                     const double* j, const double* x_prev,
                                     double* out, std::size_t nx);

// ---- batched (SoA, one lane per concurrent series) kernel family -----------
//
// The single-series kernels above vectorize WITHIN one series, so the B-chain
// serializes and Nx < vector-width reservoirs leave lanes empty. The batched
// family — the input mask and the two B-chains — transposes up to
// kBatchedMaxLanes concurrent series into structure-of-arrays form, state
// buffers indexed [node*lanes + lane], so every vector operation spans
// INDEPENDENT series: the per-node B-chain dependence crosses rows, never
// lanes, and lanes stay full at any Nx. The DPRR has a lane entry per
// rounding too, dprr_lanes and dprr_lanes_exact: a time block of SoA states
// accumulates into an r laid out [feature*lanes + lane], so its vectors also
// span series and no Nx remainder exists. The lane set (serve/soa_step.hpp)
// runs them for both lockstep forwards: the batched serving engine at its
// datapath's rounding, the training forward exact.
//
// Per-lane equivalence contract (x86-64; the aarch64 caveat above applies):
//   * batched_mask and batched_bchain perform the scalar mask's and B-chain's
//     multiplies and adds per lane in the same order — never FMA — so
//     batched float states are bit-identical per lane to the single-series
//     path on every backend. A lane's DPRR runs dprr_lanes on those states,
//     so batched float features match the single-series SIMD engine
//     bit-identically per lane and the scalar FloatDatapath within
//     simd_feature_ulp_bound (same contract as above).
//   * batched_quant_bchain never uses FMA and rounds exactly like the scalar
//     fixed-point B-chain, and quantized lanes accumulate through
//     dprr_lanes_exact: batched quantized lanes are BIT-IDENTICAL to the
//     scalar QuantizedDatapath on every backend (asserted EXPECT_EQ-strict
//     by test_batched.cpp).
//   * dprr_lanes gives every element of every lane's r one FMA per step in
//     time order, as dprr_block does, and dprr_lanes_exact one multiply,
//     then one add, as dprr_block_exact does, so each lane's r is
//     bit-identical to the block entry of its rounding over that lane's
//     states on every backend (memcmp-checked by test_simd.cpp).
// The elementwise stages (preadd_nonlin, quant_preadd_nonlin,
// scale_quantize) are reused unchanged over nx*lanes-element SoA blocks —
// they are pure per-element maps, so the SoA layout cannot change rounding.

/// Hard cap on concurrent lanes a batched engine transposes into SoA form.
/// ServerConfig::max_batch is validated against it at server construction.
inline constexpr std::size_t kBatchedMaxLanes = 16;

/// Batched SoA B-chain over `lanes` independent series. On entry
/// x[n*lanes + l] holds the preadd/nonlinearity output v_n for lane l and
/// head[l] holds lane l's previous-step closing state x(k-1)_{Nx}; on exit
/// x[n*lanes + l] = x(k)_n for lane l via x_n = v_n + b * x_{n-1} (one
/// multiply, one add per node — never FMA, so each lane rounds exactly like
/// the scalar B-chain). `head` must not alias `x`.
using BatchedBChainFn = void (*)(double b, const double* head, double* x,
                                 std::size_t nx, std::size_t lanes);

/// Quantized twin of BatchedBChainFn: x_n = fmt.quantize(v_n + b * x_{n-1})
/// per lane, bit-identical to the scalar quantized B-chain.
using BatchedQuantBChainFn = void (*)(double b, const FixedPointFormat& fmt,
                                      const double* head, double* x,
                                      std::size_t nx, std::size_t lanes);

/// Batched SoA input mask: for every lane l,
/// j[i*lanes + l] = sum_v weights[i*channels + v] * u[v*lanes + l],
/// accumulated from 0.0 in ascending v with separate multiply and add
/// (never FMA). That is exactly the scalar Mask::apply_into -> matvec_into
/// -> dot() evaluation order per lane, so every lane is bit-identical to
/// the unbatched mask stage regardless of backend.
using BatchedMaskFn = void (*)(const double* weights, std::size_t nx,
                               std::size_t channels, const double* u,
                               double* j, std::size_t lanes);

/// Time-blocked DPRR over `lanes` series at once: DprrBlockFn with every
/// state row and every element of r widened to one value per lane.
/// `states` points at steps+1 contiguous SoA blocks of nx*lanes doubles,
/// x(k0-1), x(k0), ..., x(k0+steps-1), lane l's node i at [i*lanes + l]; r
/// holds dprr_dim(nx)*lanes doubles, lane l's feature f at [f*lanes + l].
/// For each lane and each k in time order, one accumulate at the entry's
/// rounding (dprr_lanes one FMA, as dprr_block; dprr_lanes_exact a multiply
/// then an add, as dprr_block_exact):
///   r[(i*nx + j)*lanes + l] += x(k)_{i,l} * x(k-1)_{j,l}
///   r[(nx*nx + i)*lanes + l] += x(k)_{i,l}.
/// steps >= 1, and `r` must not alias `states`.
using DprrLanesFn = void (*)(double* r, const double* states,
                             std::size_t steps, std::size_t nx,
                             std::size_t lanes);

// ---- ridge readout products -------------------------------------------------
//
// The dual ridge fit (dfr/ridge.hpp) spends its time in two products over the
// rows of a feature matrix: the kernel X X^T and the back-projection
// W = alpha^T X. Both read the rows in place through an array of row
// pointers (row i is rows[i][0..p)), so the fit gathers no row subset and
// appends no bias column. Both are EXACT on every backend: every output is a
// sum from 0.0 in the scalar loop's order with a separate multiply and add
// (never FMA), so each output is bit-identical to the scalar entry; the
// vectors only run independent outputs side by side. test_linalg.cpp
// asserts it with memcmp on every available backend.

/// Row kernel K = X X^T over n rows of p doubles, all n x n entries
/// row-major into k: k[i*n + j] = sum_c rows[i][c] * rows[j][c], summed from
/// 0.0 in ascending c, then + 1.0 when `bias` (an implicit trailing 1.0 on
/// every row, the readout's bias feature). That is exactly dot() of the two
/// (augmented) rows, so k[i*n + j] and k[j*n + i] have the same bits.
using RowGramFn = void (*)(const double* const* rows, std::size_t n,
                           std::size_t p, bool bias, double* k);

/// Back-projection W = A^T X over n rows, in W's layout: for c < ny and
/// f < p, w[c*p + f] = sum_r a[r*ny + c] * rows[r][f], summed from 0.0 in
/// ascending r, with a term skipped whenever rows[r][f] == ±0.0 (so a zero
/// feature never meets an infinite or NaN coefficient as 0 * inf = NaN).
/// When `b` is non-null it receives the bias column, b[c] = sum_r a[r*ny + c]
/// from 0.0 in ascending r. This is matmul_at_b's loop, transposed.
using BackProjectFn = void (*)(const double* const* rows, std::size_t n,
                               std::size_t p, const double* a, std::size_t ny,
                               double* w, double* b);

/// One backend's kernel set. Pointers are non-null and valid for the process
/// lifetime. `dprr_block` is the float-family accumulate (explicit FMA,
/// single rounding, ULP-bounded); `dprr_block_exact` rounds twice per
/// accumulate like the scalar reference and is bit-identical to it on every
/// backend (the quantized family, single-series training and
/// dprr_from_states use it). The batched_* members run one step per call
/// over the SoA layout documented above, and `dprr_lanes` /
/// `dprr_lanes_exact` a time block of it at the two roundings, the lane
/// set's accumulate (serve/soa_step.hpp); `row_gram` and `back_project` are
/// the ridge readout's exact products.
struct Kernels {
  Backend backend;
  PreaddNonlinFn preadd_nonlin;
  DprrBlockFn dprr_block;
  ScaleQuantizeFn scale_quantize;
  QuantPreaddNonlinFn quant_preadd_nonlin;
  DprrBlockFn dprr_block_exact;
  BatchedBChainFn batched_bchain;
  BatchedQuantBChainFn batched_quant_bchain;
  BatchedMaskFn batched_mask;
  DprrLanesFn dprr_lanes;
  DprrLanesFn dprr_lanes_exact;
  RowGramFn row_gram;
  BackProjectFn back_project;
};

/// True when `backend` can run on this CPU *and* its kernels were compiled
/// into this binary (the ISA translation units compile to stubs on foreign
/// architectures or when DFR_SIMD_KERNELS=OFF). kScalar is always available.
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// Highest-throughput available backend on this CPU.
[[nodiscard]] Backend best_backend() noexcept;

/// The backend every SIMD engine, classify_batch and the serving pool run on
/// unless given an explicit one: best_backend() unless overridden by the
/// DFR_SIMD environment variable (read once at first use) or
/// force_backend(). A DFR_SIMD value that is unrecognized (e.g. `avx999`)
/// or unavailable on this host/build (e.g. `avx512` on a CPU without it)
/// never degrades silently: one warning naming the value and the backend
/// actually selected is logged (util/log.hpp) and dispatch falls back to
/// best_backend().
[[nodiscard]] Backend active_backend();

/// Override the active backend (testing / benchmarking). Throws CheckError
/// when `backend` is unavailable. Not synchronized against concurrent engine
/// construction — call from a single thread before fan-out.
void force_backend(Backend backend);

/// Kernel set for an explicit backend. Throws CheckError when unavailable.
[[nodiscard]] const Kernels& kernels_for(Backend backend);

/// Kernel set for active_backend().
[[nodiscard]] const Kernels& active_kernels();

/// Documented SIMD-vs-scalar equivalence bound for finalized DPRR features
/// after `t_len` accumulation steps: |r_simd[i] - r_scalar[i]| <=
/// simd_feature_ulp_bound(t_len) * ulp(max_i |r_scalar[i]|) (see the
/// equivalence contract above). The constant slack absorbs sub-ulp state
/// divergence on platforms where the scalar reference itself is
/// FMA-contracted.
[[nodiscard]] constexpr std::size_t simd_feature_ulp_bound(
    std::size_t t_len) noexcept {
  return 64 + 8 * t_len;
}

namespace detail {
/// Registration hooks defined by the ISA translation units; each returns
/// nullptr when its TU was compiled without the matching arch flags.
[[nodiscard]] const Kernels* avx2_kernels() noexcept;
[[nodiscard]] const Kernels* neon_kernels() noexcept;
[[nodiscard]] const Kernels* avx512_kernels() noexcept;

/// Pure resolution of a DFR_SIMD override value: the requested backend when
/// it is recognized AND available, best_backend() otherwise. When falling
/// back, `warning` (if non-null) receives a one-line message naming the
/// rejected value and the backend actually selected; it is left empty when
/// the request is honored. Exposed so tests can exercise the fallback
/// without re-running process initialization (the env variable is read once).
[[nodiscard]] Backend resolve_env_backend(const char* value,
                                          std::string* warning);
}  // namespace detail

}  // namespace dfr::simd
