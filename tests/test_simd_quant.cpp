// Tests for the SIMD quantized datapath (SimdQuantizedDatapath +
// the quantized kernel family of serve/simd_kernels.hpp). The contract is
// STRICTER than the float SIMD suite's: fixed-point rounding is exact, so
// quantized SIMD results are asserted BIT-IDENTICAL (EXPECT_EQ) to the
// scalar QuantizedDatapath — across every FixedPointFormat configuration,
// every nonlinearity, every Nx remainder, and every available backend, at the
// stage level (vector round-to-format) and end to end (features, logits,
// classify, batch, QuantizedDfr knob). Also pins the zero-steady-state-
// allocation guarantee for the SIMD quantized engine. (On aarch64 the
// scalar reference TU may FMA-contract the B-chain; the strict assertions
// are x86-64's, mirroring test_simd's step-stage contract.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "dfr/metrics.hpp"
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

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> backends;
  for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                          simd::Backend::kNeon, simd::Backend::kAvx512}) {
    if (simd::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

/// Restores the active backend on scope exit so force_backend tests cannot
/// leak state into later tests.
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

/// Format sweeps for QuantizedInferenceConfig: the paper-default 16b/24b
/// pairing, a narrow 8b-ish deployment, an asymmetric wide-feature config,
/// and a deliberately coarse one where saturation and ties actually bite.
std::vector<QuantizedInferenceConfig> format_configs() {
  return {
      QuantizedInferenceConfig{},  // Q4.11 / Q8.15 / Q4.11 (the default)
      QuantizedInferenceConfig{{2, 5}, {4, 9}, {2, 5}},
      QuantizedInferenceConfig{{1, 14}, {10, 21}, {3, 12}},
      QuantizedInferenceConfig{{3, 2}, {6, 4}, {3, 2}},
  };
}

/// `step` is the comparison's quantization granularity: the feature-format
/// resolution for feature vectors, a weight-amplified multiple of it for
/// logits (one flipped feature step propagates through the readout row), and
/// 0 for values not on a grid. Only the non-x86 branch consumes it.
void expect_bit_identical(std::span<const double> expected,
                          std::span<const double> got,
                          const std::string& context, double step = 0.0) {
  ASSERT_EQ(expected.size(), got.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
#if defined(__x86_64__) || defined(_M_X64)
    (void)step;
    ASSERT_EQ(expected[i], got[i]) << context << " i=" << i;
#else
    // Non-x86 scalar baselines may FMA-contract (see the file header); a
    // round-to-format tie decided differently then shifts a value by one
    // full format step, so the tolerance must absorb `step`, not just ulps.
    ASSERT_NEAR(expected[i], got[i],
                1e-12 + 1e-9 * std::fabs(expected[i]) + 1.000001 * step)
        << context << " i=" << i;
#endif
  }
}

// ---- stage level: the vector round-to-format --------------------------------

// scale_quantize (the vector round-to-format with saturation) against
// FixedPointFormat::quantize per element, for every configured format,
// including values that saturate both rails, ties, NaN, infinities, and
// signed zero. The edge values sit at the end of the input, and the kernel
// runs on every suffix that starts within the first 8 elements, so they
// reach both the whole-vector body and the scalar remainder of every width.
TEST(QuantKernels, ScaleQuantizeBitExactAcrossBackends) {
  Rng rng(3);
  for (const QuantizedInferenceConfig& config : format_configs()) {
    for (const FixedPointFormat& fmt :
         {config.state_format, config.feature_format, config.weight_format}) {
      for (double scale : {1.0, 0.25, 1.0 / 3.0}) {
        Vector input;
        // Dense coverage around the representable range plus edge values.
        for (int i = 0; i < 256; ++i) {
          input.push_back(rng.uniform(-2.0 * fmt.max_value(),
                                      2.0 * fmt.max_value()));
        }
        // Exact ties at half-resolution multiples (nearest-even territory).
        for (int i = -9; i <= 9; ++i) {
          input.push_back((static_cast<double>(i) + 0.5) * fmt.resolution() /
                          scale);
        }
        input.push_back(std::numeric_limits<double>::quiet_NaN());
        input.push_back(std::numeric_limits<double>::infinity());
        input.push_back(-std::numeric_limits<double>::infinity());
        input.push_back(0.0);
        input.push_back(-0.0);

        Vector expected(input);
        for (double& v : expected) v = fmt.quantize(v * scale);

        for (simd::Backend b : available_backends()) {
          for (std::size_t first = 0; first < 8; ++first) {
            Vector got(input);
            simd::kernels_for(b).scale_quantize(
                fmt, scale, got.data() + first, got.size() - first);
            for (std::size_t i = first; i < got.size(); ++i) {
              // Bit-level compare (0.0 vs -0.0 must match too).
              ASSERT_EQ(expected[i], got[i])
                  << simd::backend_name(b) << " " << fmt.to_string()
                  << " scale=" << scale << " first=" << first
                  << " in=" << input[i];
              ASSERT_EQ(std::signbit(expected[i]), std::signbit(got[i]))
                  << simd::backend_name(b) << " " << fmt.to_string()
                  << " scale=" << scale << " first=" << first
                  << " in=" << input[i];
            }
          }
        }
      }
    }
  }
}

// quant_preadd_nonlin (quantized preadd + nonlinearity) against the scalar
// composition, for every nonlinearity and Nx remainder.
TEST(QuantKernels, QuantPreaddNonlinBitExactAcrossBackends) {
  Rng rng(11);
  const FixedPointFormat fmt{4, 11};
  for (NonlinearityKind kind : kAllKinds) {
    const Nonlinearity f(kind);
    for (std::size_t nx : kRemainderSizes) {
      Vector j(nx), x_prev(nx), expected(nx), got(nx);
      for (std::size_t n = 0; n < nx; ++n) {
        j[n] = rng.uniform(-2.0, 2.0);
        x_prev[n] = rng.uniform(-2.0, 2.0);
      }
      for (double a : {1.0, 0.7}) {
        for (std::size_t n = 0; n < nx; ++n) {
          expected[n] = a * f.value(fmt.quantize(j[n] + x_prev[n]));
        }
        for (simd::Backend b : available_backends()) {
          simd::kernels_for(b).quant_preadd_nonlin(
              f, a, fmt, j.data(), x_prev.data(), got.data(), nx);
          for (std::size_t n = 0; n < nx; ++n) {
            ASSERT_EQ(got[n], expected[n])
                << simd::backend_name(b) << " " << nonlinearity_name(kind)
                << " nx=" << nx << " a=" << a << " n=" << n;
          }
        }
      }
    }
  }
}

// The quantized lane step against its scalar entry, the per-stage loops run
// one after another, on every backend: j and x must have the oracle's bits
// (memcmp, so signed zeros count) for two state formats (the default, and a
// coarse one where saturation and ties bite), every nonlinearity, Nx from 1
// to 17 and at 30, 31 and 100, every lane count from 1 to 16 and 1 to 3
// channels. Inputs and previous states reach three times past the format's
// range; about a tenth of them, and of the mask weights, are exactly +0.0 or
// -0.0, and about one in twenty inputs and states is NaN.
TEST(QuantKernels, LaneQuantStepBitIdenticalToScalarEntry) {
#if !(defined(__x86_64__) || defined(_M_X64))
  GTEST_SKIP() << "the scalar oracle's TU may fuse on this architecture";
#endif
  std::vector<std::size_t> sizes;
  for (std::size_t nx = 1; nx <= 17; ++nx) sizes.push_back(nx);
  for (std::size_t nx : {30, 31, 100}) sizes.push_back(nx);
  const simd::Kernels& oracle = simd::kernels_for(simd::Backend::kScalar);
  constexpr double kA = 0.7, kB = 0.35, kScale = 0.5;
  Rng rng(47);
  const auto draw = [&rng](double scale, bool nan) {
    const double u = rng.uniform(-1.0, 1.0);
    if (std::fabs(u) < 0.1) return u < 0.0 ? -0.0 : 0.0;
    if (nan && std::fabs(u) > 0.95) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return scale * u;
  };
  for (const FixedPointFormat& fmt :
       {FixedPointFormat{4, 11}, FixedPointFormat{3, 2}}) {
    const double range = 3.0 * fmt.max_value();
    for (NonlinearityKind kind : kAllKinds) {
      const Nonlinearity f(kind);
      for (std::size_t nx : sizes) {
        for (std::size_t channels = 1; channels <= 3; ++channels) {
          Vector weights(nx * channels);
          for (double& w : weights) w = draw(1.0, false);
          for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
            Vector u(channels * lanes), x_prev(nx * lanes);
            for (double& v : u) v = draw(range, true);
            for (double& v : x_prev) v = draw(range, true);
            Vector j_ref(nx * lanes), x_ref(nx * lanes);
            oracle.lane_quant_step(f, kA, kB, fmt, kScale, weights.data(),
                                   channels, u.data(), x_prev.data(),
                                   j_ref.data(), x_ref.data(), nx, lanes);
            const std::size_t bytes = nx * lanes * sizeof(double);
            for (simd::Backend b : available_backends()) {
              Vector j(nx * lanes, std::nan("")), x(nx * lanes, std::nan(""));
              simd::kernels_for(b).lane_quant_step(
                  f, kA, kB, fmt, kScale, weights.data(), channels, u.data(),
                  x_prev.data(), j.data(), x.data(), nx, lanes);
              const std::string context =
                  std::string(simd::backend_name(b)) + " " + fmt.to_string() +
                  " " + nonlinearity_name(kind) + " nx=" + std::to_string(nx) +
                  " channels=" + std::to_string(channels) +
                  " lanes=" + std::to_string(lanes);
              ASSERT_EQ(std::memcmp(j.data(), j_ref.data(), bytes), 0)
                  << context << " j";
              ASSERT_EQ(std::memcmp(x.data(), x_ref.data(), bytes), 0)
                  << context << " x";
            }
          }
        }
      }
    }
  }
}

// dprr_block_exact, one step per call, against the DPRR definition written
// out as a plain multiply-then-add loop, over many accumulation steps: no
// FMA means no drift — strict equality even after hundreds of rounds.
TEST(QuantKernels, DprrAddExactBitExactAcrossBackends) {
  Rng rng(17);
  for (std::size_t nx : kRemainderSizes) {
    constexpr std::size_t kSteps = 64;
    Vector states((kSteps + 1) * nx);  // rows x(0) .. x(kSteps)
    for (double& v : states) v = rng.uniform(-1.0, 1.0);
    Vector reference(dprr_dim(nx), 0.0);
    for (std::size_t k = 1; k <= kSteps; ++k) {
      const double* x_k = states.data() + k * nx;
      const double* x_km1 = x_k - nx;
      for (std::size_t i = 0; i < nx; ++i) {
        for (std::size_t j = 0; j < nx; ++j) {
          reference[i * nx + j] += x_k[i] * x_km1[j];
        }
        reference[nx * nx + i] += x_k[i];
      }
    }
    for (simd::Backend b : available_backends()) {
      Vector r(dprr_dim(nx), 0.0);
      for (std::size_t k = 0; k < kSteps; ++k) {
        simd::kernels_for(b).dprr_block_exact(r.data(), states.data() + k * nx,
                                              1, nx);
      }
      // Strict on x86-64; on other architectures this test's reference loop
      // may itself fuse (it is built without -ffp-contract=off), so the
      // helper's non-x86 branch allows sub-ulp drift. The accumulators are
      // raw doubles, not grid values, hence step = 0.
      expect_bit_identical(reference, r,
                           std::string(simd::backend_name(b)) +
                               " dprr nx=" + std::to_string(nx));
    }
  }
}

// ---- pipeline level: strict equivalence across everything ------------------

// The headline contract: SimdQuantizedDatapath features and logits are
// EXPECT_EQ-identical to the scalar QuantizedDatapath for every format
// configuration, nonlinearity, Nx remainder, and available backend.
TEST(QuantEquivalence, FeaturesAndLogitsBitIdenticalAcrossEverything) {
  constexpr std::size_t kTLen = 40;
  constexpr std::size_t kChannels = 3;
  Rng rng(42);
  for (const QuantizedInferenceConfig& config : format_configs()) {
    for (NonlinearityKind kind : kAllKinds) {
      for (std::size_t nx : kRemainderSizes) {
        const LoadedModel model = make_model(nx, kChannels, 3, kind, 7 + nx);
        QuantizedDfr quantized(model, config);
        // Calibrate on a tiny synthetic set so prescalers are non-trivial.
        Dataset calib("calib", 3, kTLen, kChannels);
        for (int i = 0; i < 3; ++i) {
          calib.add({random_series(kTLen, kChannels, rng), i % 2});
        }
        quantized.calibrate(calib);
        const Matrix series = random_series(kTLen, kChannels, rng);

        QuantizedInferenceEngine scalar_engine = make_engine(quantized);
        const std::span<const double> ref_features =
            scalar_engine.features(series);
        const Vector ref_copy(ref_features.begin(), ref_features.end());
        const Vector ref_logits(scalar_engine.infer(series).begin(),
                                scalar_engine.infer(series).end());
        const int ref_label = scalar_engine.classify(series);

        // One flipped feature step amplifies through the readout row; 8x
        // is a generous bound for the few ties contraction could flip.
        const double feature_step = config.feature_format.resolution();
        for (simd::Backend b : available_backends()) {
          SimdQuantizedInferenceEngine engine = make_simd_engine(quantized, b);
          const std::string context =
              std::string(simd::backend_name(b)) + " " +
              nonlinearity_name(kind) + " nx=" + std::to_string(nx) + " " +
              config.state_format.to_string();
          expect_bit_identical(ref_copy, engine.features(series),
                               context + " features", feature_step);
          expect_bit_identical(ref_logits, engine.infer(series),
                               context + " logits", 8.0 * feature_step);
          EXPECT_EQ(engine.classify(series), ref_label) << context;
        }
      }
    }
  }
}

// The QuantizedDfr convenience path runs the SIMD engine on the active
// backend: identical features and labels to the scalar engine, by the
// exactness contract.
TEST(QuantEquivalence, QuantizedDfrMatchesScalarEngine) {
  const LoadedModel model =
      make_model(30, 2, 4, NonlinearityKind::kIdentity, 77);
  QuantizedDfr quantized(model, QuantizedInferenceConfig{});
  Rng rng(78);
  const Matrix series = random_series(50, 2, rng);
  QuantizedInferenceEngine scalar_engine = make_engine(quantized);
  const double step = quantized.config().feature_format.resolution();
  expect_bit_identical(scalar_engine.features(series),
                       quantized.features(series), "features", step);
  EXPECT_EQ(quantized.classify(series), scalar_engine.classify(series));
}

// Shared-ownership engines keep the quantized model alive, mirroring the
// float artifact semantics.
TEST(QuantEquivalence, SharedOwnershipEngineOutlivesModel) {
  Rng rng(5);
  const Matrix series = random_series(30, 2, rng);
  Vector expected;
  int label = -1;
  SimdQuantizedInferenceEngine engine = [&] {
    const LoadedModel model =
        make_model(10, 2, 3, NonlinearityKind::kSaturating, 6);
    auto shared = std::make_shared<const QuantizedDfr>(
        model, QuantizedInferenceConfig{});
    QuantizedInferenceEngine scalar_engine = make_engine(shared);
    expected.assign(scalar_engine.infer(series).begin(),
                    scalar_engine.infer(series).end());
    label = scalar_engine.classify(series);
    return make_simd_engine(std::move(shared));
  }();  // the QuantizedDfr is only owned by the engines now
  expect_bit_identical(expected, engine.infer(series), "shared ownership",
                       8.0 * QuantizedInferenceConfig{}.feature_format.resolution());
  EXPECT_EQ(engine.classify(series), label);
}

TEST(QuantEquivalence, NullSharedModelThrowsTypedError) {
  EXPECT_THROW((void)make_simd_engine(std::shared_ptr<const QuantizedDfr>{}),
               CheckError);
}

// ---- batch determinism under forced dispatch -------------------------------

TEST(QuantBatch, ClassifyBatchDeterministicUnderForcedDispatch) {
  const LoadedModel model =
      make_model(17, 2, 3, NonlinearityKind::kSaturating, 99);
  QuantizedDfr quantized(model, QuantizedInferenceConfig{});
  Rng rng(100);
  std::vector<Matrix> batch;
  for (int i = 0; i < 24; ++i) batch.push_back(random_series(25, 2, rng));
  const std::span<const Matrix> series(batch);

  // Scalar-engine reference predictions, per series.
  std::vector<int> scalar_ref;
  QuantizedInferenceEngine scalar_engine = make_engine(quantized);
  for (const Matrix& m : batch) scalar_ref.push_back(scalar_engine.classify(m));

  ScopedBackend guard;
  for (simd::Backend b : available_backends()) {
    simd::force_backend(b);
    // Predictions must agree with the scalar pipeline on every backend
    // (strictly — the exactness contract)...
    SimdQuantizedInferenceEngine engine = make_simd_engine(quantized, b);
    std::vector<int> forced;
    for (const Matrix& m : batch) forced.push_back(engine.classify(m));
    EXPECT_EQ(forced, scalar_ref) << simd::backend_name(b);
    // ...and classify_batch must be deterministic for any thread count.
    for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
      EXPECT_EQ(classify_batch(quantized, series, threads), scalar_ref)
          << simd::backend_name(b) << " threads=" << threads;
    }
  }
}

TEST(QuantBatch, QuantizedAccuracyAgreesAcrossEngineKinds) {
  const LoadedModel model =
      make_model(12, 2, 3, NonlinearityKind::kIdentity, 55);
  QuantizedDfr quantized(model, QuantizedInferenceConfig{});
  Rng rng(56);
  Dataset data("acc", 3, 20, 2);
  for (int i = 0; i < 16; ++i) {
    data.add({random_series(20, 2, rng), i % 3});
  }
  // The scalar engine's accuracy against quantized_accuracy (SIMD engines)
  // at two thread counts.
  QuantizedInferenceEngine scalar_engine = make_engine(quantized);
  std::vector<int> predicted, actual;
  for (std::size_t i = 0; i < data.size(); ++i) {
    predicted.push_back(scalar_engine.classify(data[i].series));
    actual.push_back(data[i].label);
  }
  const double scalar = accuracy(predicted, actual);
  EXPECT_EQ(quantized_accuracy(quantized, data, 1), scalar);
  EXPECT_EQ(quantized_accuracy(quantized, data, 2), scalar);
}

// ---- steady-state allocation guarantee -------------------------------------

TEST(QuantEngine, ClassifyIsAllocationFreeInSteadyState) {
  const LoadedModel model =
      make_model(30, 2, 4, NonlinearityKind::kIdentity, 13);
  QuantizedDfr quantized(model, QuantizedInferenceConfig{});
  Rng rng(14);
  std::vector<Matrix> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(random_series(40, 2, rng));

  SimdQuantizedInferenceEngine engine = make_simd_engine(quantized);
  for (const Matrix& m : batch) engine.classify(m);  // warmup

  const std::size_t before = g_allocations.load();
  int sink = 0;
  for (int rep = 0; rep < 100; ++rep) {
    for (const Matrix& m : batch) sink += engine.classify(m);
  }
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "SIMD quantized classify() must not allocate after warmup";
  EXPECT_GE(sink, 0);  // keep the loop observable
}

}  // namespace
}  // namespace dfr
