// Tests for the SIMD reservoir-step datapath (serve/simd_kernels.hpp,
// SimdFloatDatapath): runtime dispatch and forcing (programmatic + DFR_SIMD
// env), the exact-match contract on the mask/preadd stage, ULP-bounded
// equivalence of finalized features against the scalar pipeline across every
// nonlinearity and every vector-width remainder of Nx (including none),
// classify_batch determinism under forced dispatch, the LoadedModel engine
// knob, and the zero-steady-state-allocation guarantee for the SIMD engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "dfr/backprop.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

// ---- allocation instrumentation (same scheme as test_serve.cpp) ------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfr {
namespace {

// ---- helpers ---------------------------------------------------------------

/// Monotone mapping of the double number line onto uint64, for ULP distances.
std::uint64_t ordered_bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return (u & (1ULL << 63)) ? ~u : u | (1ULL << 63);
}

[[maybe_unused]] std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;  // also covers +0 vs -0
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::uint64_t ua = ordered_bits(a), ub = ordered_bits(b);
  return ua > ub ? ua - ub : ub - ua;
}

constexpr simd::Backend kAllBackends[] = {
    simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon,
    simd::Backend::kAvx512};

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> backends;
  for (simd::Backend b : kAllBackends) {
    if (simd::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

/// Restores the active backend on scope exit so force_backend tests cannot
/// leak state into later tests (gtest runs them in declaration order).
class ScopedBackend {
 public:
  ScopedBackend() : saved_(simd::active_backend()) {}
  ~ScopedBackend() { simd::force_backend(saved_); }

 private:
  simd::Backend saved_;
};

Matrix random_series(std::size_t t_len, std::size_t channels, Rng& rng) {
  Matrix m(t_len, channels);
  for (std::size_t k = 0; k < t_len; ++k) {
    for (std::size_t v = 0; v < channels; ++v) m(k, v) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

/// Deployment-shaped model with random (but deterministic) weights; serving
/// equivalence depends only on shapes, never on training.
LoadedModel make_model(std::size_t nodes, std::size_t channels, int classes,
                       NonlinearityKind kind, std::uint64_t seed) {
  Rng rng(seed);
  LoadedModel model;
  model.params = DfrParams{0.1, 0.05};
  model.mask = Mask(nodes, channels, MaskKind::kBinary, rng);
  model.nonlinearity = Nonlinearity(kind);
  Matrix w(static_cast<std::size_t>(classes), dprr_dim(nodes));
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) w(i, j) = rng.uniform(-1.0, 1.0);
  }
  Vector b(w.rows(), 0.0);
  for (double& v : b) v = rng.uniform(-0.1, 0.1);
  model.readout = OutputLayer(std::move(w), std::move(b));
  return model;
}

constexpr NonlinearityKind kAllKinds[] = {
    NonlinearityKind::kIdentity,  NonlinearityKind::kMackeyGlass,
    NonlinearityKind::kTanh,      NonlinearityKind::kSine,
    NonlinearityKind::kCubic,     NonlinearityKind::kSaturating,
};

// Nx sizes that hit every remainder mod the NEON (2), AVX2 (4), and AVX-512
// (8) widths: below any width, odd, prime, large non-multiples, and exact
// multiples (4, 8, 16), which leave the scalar remainder empty.
constexpr std::size_t kRemainderSizes[] = {1, 2, 3, 4, 5, 7, 8, 16, 30, 101};

// ---- dispatch plumbing -----------------------------------------------------

TEST(SimdDispatch, BackendNamesRoundTrip) {
  for (simd::Backend b : kAllBackends) {
    EXPECT_EQ(simd::parse_backend(simd::backend_name(b)), b);
  }
  EXPECT_THROW((void)simd::parse_backend("avx999"), CheckError);
  EXPECT_THROW((void)simd::parse_backend(""), CheckError);
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndBestIsAvailable) {
  EXPECT_TRUE(simd::backend_available(simd::Backend::kScalar));
  EXPECT_TRUE(simd::backend_available(simd::best_backend()));
  EXPECT_TRUE(simd::backend_available(simd::active_backend()));
  EXPECT_EQ(simd::kernels_for(simd::Backend::kScalar).backend,
            simd::Backend::kScalar);
  EXPECT_EQ(simd::active_kernels().backend, simd::active_backend());
}

// AVX-512 is a real fourth backend, preferred over AVX2 when the CPU has
// it — best_backend() must pick the widest available kernel set.
TEST(SimdDispatch, BestBackendPrefersWiderVectors) {
  if (simd::backend_available(simd::Backend::kAvx512)) {
    EXPECT_EQ(simd::best_backend(), simd::Backend::kAvx512);
  } else if (simd::backend_available(simd::Backend::kAvx2)) {
    EXPECT_EQ(simd::best_backend(), simd::Backend::kAvx2);
  } else if (simd::backend_available(simd::Backend::kNeon)) {
    EXPECT_EQ(simd::best_backend(), simd::Backend::kNeon);
  } else {
    EXPECT_EQ(simd::best_backend(), simd::Backend::kScalar);
  }
}

// Run under CTest's `simd_forced_scalar` registration (ENVIRONMENT
// DFR_SIMD=scalar) this asserts the env route end-to-end; under
// `simd_forced_avx512` (DFR_SIMD=avx512) it asserts either the forced
// AVX-512 dispatch (on capable hosts) or the unavailable-backend fallback
// (elsewhere — which is how that registration "skips cleanly" on
// non-AVX-512 runners); under `simd_env_fallback` (DFR_SIMD=avx999) it
// asserts the warn-and-fall-back route for unrecognized values; without the
// env var it documents the default: best available backend.
TEST(SimdDispatch, EnvForcedBackendIsHonored) {
  if (const char* env = std::getenv("DFR_SIMD")) {
    simd::Backend requested = simd::Backend::kScalar;
    if (simd::try_parse_backend(env, requested) &&
        simd::backend_available(requested)) {
      EXPECT_EQ(simd::active_backend(), requested)
          << "DFR_SIMD=" << env << " was not honored";
    } else {
      // Unrecognized / unavailable values warn once and fall back.
      EXPECT_EQ(simd::active_backend(), simd::best_backend())
          << "DFR_SIMD=" << env << " did not fall back to the best backend";
    }
  } else {
    EXPECT_EQ(simd::active_backend(), simd::best_backend());
  }
}

// The DFR_SIMD resolution rule itself (the env variable is read only once
// per process, so the fallback logic is exposed for direct testing): bad
// values resolve to best_backend() with a warning that names both the
// rejected value and the backend actually selected.
TEST(SimdDispatch, UnrecognizedEnvValueWarnsAndFallsBack) {
  std::string warning;
  EXPECT_EQ(simd::detail::resolve_env_backend("avx999", &warning),
            simd::best_backend());
  EXPECT_NE(warning.find("avx999"), std::string::npos)
      << "warning must name the rejected value: " << warning;
  EXPECT_NE(warning.find(simd::backend_name(simd::best_backend())),
            std::string::npos)
      << "warning must name the backend actually selected: " << warning;
  // A recognized, available value is honored without a warning.
  EXPECT_EQ(simd::detail::resolve_env_backend("scalar", &warning),
            simd::Backend::kScalar);
  EXPECT_TRUE(warning.empty()) << warning;
}

// A recognized backend the CPU/build cannot run (e.g. DFR_SIMD=avx512 on a
// pre-AVX-512 host) warns and falls back, naming the detected best backend.
TEST(SimdDispatch, UnavailableEnvValueWarnsAndFallsBack) {
  const char* unavailable = nullptr;
  for (simd::Backend b : {simd::Backend::kAvx2, simd::Backend::kNeon,
                          simd::Backend::kAvx512}) {
    if (!simd::backend_available(b)) unavailable = simd::backend_name(b);
  }
  if (unavailable == nullptr) {
    GTEST_SKIP() << "every backend is available on this host/build";
  }
  std::string warning;
  EXPECT_EQ(simd::detail::resolve_env_backend(unavailable, &warning),
            simd::best_backend());
  EXPECT_NE(warning.find(unavailable), std::string::npos) << warning;
  EXPECT_NE(warning.find(simd::backend_name(simd::best_backend())),
            std::string::npos)
      << warning;
}

TEST(SimdDispatch, TryParseBackendMatchesParse) {
  simd::Backend out = simd::Backend::kAvx2;
  EXPECT_TRUE(simd::try_parse_backend("scalar", out));
  EXPECT_EQ(out, simd::Backend::kScalar);
  EXPECT_TRUE(simd::try_parse_backend("avx2", out));
  EXPECT_EQ(out, simd::Backend::kAvx2);
  EXPECT_TRUE(simd::try_parse_backend("neon", out));
  EXPECT_EQ(out, simd::Backend::kNeon);
  EXPECT_TRUE(simd::try_parse_backend("avx512", out));
  EXPECT_EQ(out, simd::Backend::kAvx512);
  EXPECT_FALSE(simd::try_parse_backend("avx999", out));
  EXPECT_FALSE(simd::try_parse_backend("", out));
}

TEST(SimdDispatch, ForcingUnavailableBackendThrows) {
  bool found_unavailable = false;
  for (simd::Backend b : {simd::Backend::kAvx2, simd::Backend::kNeon,
                          simd::Backend::kAvx512}) {
    if (!simd::backend_available(b)) {
      found_unavailable = true;
      EXPECT_THROW(simd::force_backend(b), CheckError);
      EXPECT_THROW((void)simd::kernels_for(b), CheckError);
    }
  }
  if (!found_unavailable) {
    GTEST_SKIP() << "every backend is available on this host/build";
  }
}

TEST(SimdDispatch, ForceBackendSwitchesActive) {
  ScopedBackend guard;
  for (simd::Backend b : available_backends()) {
    simd::force_backend(b);
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_EQ(simd::active_kernels().backend, b);
  }
}

// ---- stage-level equivalence -----------------------------------------------

// The mask/preadd stage contract is EXACT on every backend: lanes perform the
// same IEEE-754 add (and gain multiply) as the scalar kernel.
TEST(SimdKernels, PreaddStageBitExactAcrossBackends) {
  const simd::Kernels& scalar = simd::kernels_for(simd::Backend::kScalar);
  Rng rng(11);
  for (std::size_t nx : kRemainderSizes) {
    Vector j(nx), x_prev(nx), out_ref(nx), out(nx);
    for (std::size_t n = 0; n < nx; ++n) {
      j[n] = rng.uniform(-2.0, 2.0);
      x_prev[n] = rng.uniform(-2.0, 2.0);
    }
    for (double a : {1.0, 0.7}) {
      const Nonlinearity identity(NonlinearityKind::kIdentity);
      scalar.preadd_nonlin(identity, a, j.data(), x_prev.data(),
                           out_ref.data(), nx);
      if (a == 1.0) {
        // a=1, f=identity is the raw preadd: check it against the literal sum.
        for (std::size_t n = 0; n < nx; ++n) {
          ASSERT_EQ(out_ref[n], j[n] + x_prev[n]);
        }
      }
      for (simd::Backend b : available_backends()) {
        const simd::Kernels& kernels = simd::kernels_for(b);
        kernels.preadd_nonlin(identity, a, j.data(), x_prev.data(), out.data(),
                              nx);
        for (std::size_t n = 0; n < nx; ++n) {
          ASSERT_EQ(out[n], out_ref[n])
              << simd::backend_name(b) << " nx=" << nx << " n=" << n;
        }
      }
    }
  }
}

// One reservoir step through SimdFloatDatapath vs ModularReservoir::step.
// Bit-exact on x86-64 (SIMD TUs build with -ffp-contract=off and the
// baseline has no FMA to contract); elsewhere the scalar reference itself
// may be FMA-contracted, so allow a few ulps.
TEST(SimdKernels, StepStageMatchesScalarReservoir) {
  const DfrParams params{0.1, 0.05};
  Rng rng(23);
  for (NonlinearityKind kind : kAllKinds) {
    const Nonlinearity f(kind);
    for (std::size_t nx : kRemainderSizes) {
      const ModularReservoir reservoir(nx, f);
      const Mask mask(nx, 2, MaskKind::kBinary, rng);
      Vector j(nx), x_prev(nx), ref(nx), out(nx);
      for (std::size_t n = 0; n < nx; ++n) {
        j[n] = rng.uniform(-1.0, 1.0);
        x_prev[n] = rng.uniform(-1.0, 1.0);
      }
      reservoir.step(params, j, x_prev, ref);
      for (simd::Backend b : available_backends()) {
        const SimdFloatDatapath datapath(mask, params, f, b);
        datapath.step(j, x_prev, out);
        for (std::size_t n = 0; n < nx; ++n) {
#if defined(__x86_64__) || defined(_M_X64)
          ASSERT_EQ(out[n], ref[n])
              << simd::backend_name(b) << " " << nonlinearity_name(kind)
              << " nx=" << nx << " n=" << n;
#else
          ASSERT_LE(ulp_distance(out[n], ref[n]), 8u)
              << simd::backend_name(b) << " " << nonlinearity_name(kind)
              << " nx=" << nx << " n=" << n;
#endif
        }
      }
    }
  }
}

// The DPRR block entry against the same kernel one step per call, for both
// roundings on every backend: a block must leave r bit-for-bit as its steps
// do (memcmp, so signed zeros count too), at every Nx remainder and at block
// lengths around the accumulator's K. r starts nonzero, as it does for every
// block after a series' first. The exact entry must also match the scalar
// backend's, the oracle.
TEST(SimdKernels, DprrBlockBitIdenticalToItsSteps) {
  constexpr std::size_t kK = DprrAccumulator::kBlockSteps;
  const simd::Kernels& oracle = simd::kernels_for(simd::Backend::kScalar);
  Rng rng(29);
  for (std::size_t nx : kRemainderSizes) {
    for (std::size_t t_len :
         {std::size_t{1}, kK - 1, kK, kK + 1, std::size_t{151}}) {
      Vector states((t_len + 1) * nx);
      for (double& v : states) v = rng.uniform(-1.0, 1.0);
      Vector r0(dprr_dim(nx));
      for (double& v : r0) v = rng.uniform(-4.0, 4.0);
      const std::size_t bytes = r0.size() * sizeof(double);

      Vector oracle_exact = r0;
      oracle.dprr_block_exact(oracle_exact.data(), states.data(), t_len, nx);
      for (simd::Backend b : available_backends()) {
        const simd::Kernels& kernels = simd::kernels_for(b);
        for (const simd::DprrBlockFn block :
             {kernels.dprr_block, kernels.dprr_block_exact}) {
          const bool exact = block == kernels.dprr_block_exact;
          const std::string context =
              std::string(simd::backend_name(b)) +
              (exact ? " exact" : " float") + " nx=" + std::to_string(nx) +
              " T=" + std::to_string(t_len);
          Vector stepped = r0;
          for (std::size_t k = 0; k < t_len; ++k) {
            block(stepped.data(), states.data() + k * nx, 1, nx);
          }
          Vector blocked = r0;
          block(blocked.data(), states.data(), t_len, nx);
          EXPECT_EQ(std::memcmp(blocked.data(), stepped.data(), bytes), 0)
              << context;
#if defined(__x86_64__) || defined(_M_X64)
          // The scalar oracle's TU may fuse on other architectures.
          if (exact) {
            EXPECT_EQ(
                std::memcmp(blocked.data(), oracle_exact.data(), bytes), 0)
                << context << " vs the scalar oracle";
          }
#endif
        }
      }
    }
  }
}

// The lane DPRR against the per-lane block kernel of its rounding, on every
// backend: each lane's r must have the bits (memcmp, so signed zeros count)
// that dprr_block (for dprr_lanes) or dprr_block_exact (for
// dprr_lanes_exact) leaves in that lane's r over that lane's states, at
// every Nx from 1 to 17 and at 30, 31 and 100, every lane count from 1 to
// 16, and block lengths around the lane set's K. r starts nonzero, and about
// a tenth of the states and of r start as exactly +0.0 or -0.0.
TEST(SimdKernels, DprrLanesBitIdenticalToPerLaneBlocks) {
  constexpr std::size_t kK = SoaStep::kBlockSteps;
  std::vector<std::size_t> sizes;
  for (std::size_t nx = 1; nx <= 17; ++nx) sizes.push_back(nx);
  for (std::size_t nx : {30, 31, 100}) sizes.push_back(nx);
  Rng rng(41);
  const auto draw = [&rng](double scale) {
    const double u = rng.uniform(-1.0, 1.0);
    if (std::fabs(u) < 0.1) return u < 0.0 ? -0.0 : 0.0;
    return scale * u;
  };
  for (std::size_t nx : sizes) {
    const std::size_t dim = dprr_dim(nx);
    for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
      for (std::size_t steps :
           {std::size_t{1}, kK - 1, kK, kK + 1, std::size_t{151}}) {
        Vector states((steps + 1) * nx * lanes);
        for (double& v : states) v = draw(1.0);
        Vector r0(dim * lanes);
        for (double& v : r0) v = draw(4.0);
        for (simd::Backend b : available_backends()) {
          const simd::Kernels& kernels = simd::kernels_for(b);
          const struct {
            simd::DprrLanesFn lanes;
            simd::DprrBlockFn block;
            const char* rounding;
          } roundings[] = {
              {kernels.dprr_lanes, kernels.dprr_block, "float"},
              {kernels.dprr_lanes_exact, kernels.dprr_block_exact, "exact"}};
          for (const auto& rounding : roundings) {
            SCOPED_TRACE(rounding.rounding);
            Vector r = r0;
            rounding.lanes(r.data(), states.data(), steps, nx, lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
              Vector lane_states((steps + 1) * nx);
              for (std::size_t q = 0; q < lane_states.size(); ++q) {
                lane_states[q] = states[q * lanes + l];
              }
              Vector expected(dim), got(dim);
              for (std::size_t f = 0; f < dim; ++f) {
                expected[f] = r0[f * lanes + l];
                got[f] = r[f * lanes + l];
              }
              rounding.block(expected.data(), lane_states.data(), steps, nx);
              ASSERT_EQ(std::memcmp(expected.data(), got.data(),
                                    dim * sizeof(double)),
                        0)
                  << simd::backend_name(b) << " nx=" << nx
                  << " lanes=" << lanes << " steps=" << steps << " lane=" << l;
            }
          }
        }
      }
    }
  }
}

// ---- pipeline equivalence: the documented ULP bound ------------------------

// Finalized features (full mask -> step -> DPRR -> finalize pipeline) for
// every nonlinearity and Nx remainder, on every available backend, against
// the FloatDatapath scalar pipeline: |diff| <= simd_feature_ulp_bound(T) ulps
// of the largest-magnitude scalar feature (see simd_kernels.hpp).
TEST(SimdEquivalence, FeaturesWithinUlpBoundAcrossNonlinearitiesAndSizes) {
  const DfrParams params{0.1, 0.05};
  constexpr std::size_t kTLen = 40;
  constexpr std::size_t kChannels = 3;
  Rng rng(42);
  for (NonlinearityKind kind : kAllKinds) {
    const Nonlinearity f(kind);
    for (std::size_t nx : kRemainderSizes) {
      const Mask mask(nx, kChannels, MaskKind::kBinary, rng);
      const Matrix series = random_series(kTLen, kChannels, rng);

      InferenceEngine scalar_engine(FloatDatapath(mask, params, f));
      const std::span<const double> ref = scalar_engine.features(series);
      double max_abs = 0.0;
      for (double r : ref) max_abs = std::max(max_abs, std::fabs(r));
      // ulp(max|r|) * documented bound, as an absolute tolerance.
      const double tol =
          (std::nextafter(max_abs, std::numeric_limits<double>::infinity()) -
           max_abs) *
          static_cast<double>(simd::simd_feature_ulp_bound(kTLen));

      for (simd::Backend b : available_backends()) {
        SimdInferenceEngine engine(SimdFloatDatapath(mask, params, f, b));
        const std::span<const double> got = engine.features(series);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          if (b == simd::Backend::kScalar) {
#if defined(__x86_64__) || defined(_M_X64)
            // The scalar backend performs identical operations: bit-exact.
            ASSERT_EQ(got[i], ref[i])
                << nonlinearity_name(kind) << " nx=" << nx << " i=" << i;
            continue;
#endif
          }
          ASSERT_LE(std::fabs(got[i] - ref[i]), tol)
              << simd::backend_name(b) << " " << nonlinearity_name(kind)
              << " nx=" << nx << " i=" << i << " ref=" << ref[i]
              << " got=" << got[i];
        }
      }
    }
  }
}

TEST(SimdEquivalence, LogitsAndClassifyMatchFloatEngine) {
  const LoadedModel model =
      make_model(30, 2, 4, NonlinearityKind::kIdentity, 77);
  Rng rng(78);
  InferenceEngine scalar_engine = make_engine(model);
  for (int sample = 0; sample < 8; ++sample) {
    const Matrix series = random_series(50, 2, rng);
    const std::span<const double> ref = scalar_engine.infer(series);
    const Vector ref_copy(ref.begin(), ref.end());
    for (simd::Backend b : available_backends()) {
      SimdInferenceEngine engine = make_simd_engine(model, b);
      const std::span<const double> got = engine.infer(series);
      ASSERT_EQ(got.size(), ref_copy.size());
      double max_abs = 0.0;
      for (double z : ref_copy) max_abs = std::max(max_abs, std::fabs(z));
      for (std::size_t c = 0; c < ref_copy.size(); ++c) {
        ASSERT_NEAR(got[c], ref_copy[c], 1e-9 * std::max(1.0, max_abs))
            << simd::backend_name(b) << " sample " << sample << " class " << c;
      }
      EXPECT_EQ(engine.classify(series), scalar_engine.classify(series))
          << simd::backend_name(b) << " sample " << sample;
    }
  }
}

// LoadedModel's convenience path is the SIMD engine on the active backend:
// bit-identical to make_simd_engine, and within tolerance of the scalar
// engine.
TEST(SimdEquivalence, LoadedModelRunsTheSimdEngine) {
  const LoadedModel model = make_model(20, 2, 3, NonlinearityKind::kTanh, 5);
  Rng rng(6);
  const Matrix series = random_series(30, 2, rng);
  InferenceEngine scalar_engine = make_engine(model);
  SimdInferenceEngine simd_engine = make_simd_engine(model);
  const std::span<const double> scalar = scalar_engine.infer(series);
  const std::span<const double> simd_z = simd_engine.infer(series);
  const Vector z = model.infer(series);
  ASSERT_EQ(z.size(), simd_z.size());
  ASSERT_EQ(z.size(), scalar.size());
  for (std::size_t c = 0; c < z.size(); ++c) {
    EXPECT_EQ(z[c], simd_z[c]);
    EXPECT_NEAR(scalar[c], z[c], 1e-9 * std::max(1.0, std::fabs(scalar[c])));
  }
  EXPECT_EQ(model.classify(series), simd_engine.classify(series));
  EXPECT_EQ(model.classify(series), scalar_engine.classify(series));
}

// ---- batch determinism under forced dispatch -------------------------------

TEST(SimdBatch, ClassifyBatchDeterministicUnderForcedDispatch) {
  const LoadedModel model =
      make_model(17, 2, 3, NonlinearityKind::kSaturating, 99);
  Rng rng(100);
  std::vector<Matrix> batch;
  for (int i = 0; i < 24; ++i) batch.push_back(random_series(25, 2, rng));
  const std::span<const Matrix> series(batch);

  // Scalar-engine reference predictions, per series.
  std::vector<int> scalar_ref;
  InferenceEngine scalar_engine = make_engine(model);
  for (const Matrix& m : batch) scalar_ref.push_back(scalar_engine.classify(m));

  ScopedBackend guard;
  for (simd::Backend b : available_backends()) {
    simd::force_backend(b);
    // Per-series reference on this backend's engine.
    std::vector<int> reference;
    SimdInferenceEngine engine = make_simd_engine(model, b);
    for (const Matrix& m : batch) reference.push_back(engine.classify(m));
    // Predictions must agree with the scalar pipeline on every backend...
    EXPECT_EQ(reference, scalar_ref) << simd::backend_name(b);
    // ...and classify_batch must be deterministic for any thread count.
    for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
      EXPECT_EQ(classify_batch(model, series, threads), reference)
          << simd::backend_name(b) << " threads=" << threads;
    }
  }
}

// ---- steady-state allocation guarantee -------------------------------------

TEST(SimdEngine, ClassifyIsAllocationFreeInSteadyState) {
  const LoadedModel model =
      make_model(30, 2, 4, NonlinearityKind::kIdentity, 13);
  Rng rng(14);
  std::vector<Matrix> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(random_series(40, 2, rng));

  SimdInferenceEngine engine = make_simd_engine(model);
  for (const Matrix& m : batch) engine.classify(m);  // warmup

  const std::size_t before = g_allocations.load();
  int sink = 0;
  for (int rep = 0; rep < 100; ++rep) {
    for (const Matrix& m : batch) sink += engine.classify(m);
  }
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after, before) << "SIMD classify() must not allocate after warmup";
  EXPECT_GE(sink, 0);  // keep the loop observable
}

}  // namespace
}  // namespace dfr
