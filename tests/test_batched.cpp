// Tests for the cross-request batched SoA engine (serve/engine.hpp
// BatchedEngine + the batched kernel family of serve/simd_kernels.hpp).
// The contracts under test:
//   - float lanes land within simd_feature_ulp_bound of the scalar
//     FloatDatapath pipeline (the float SIMD contract, per lane);
//   - float lanes are BIT-IDENTICAL to the single-series SIMD engine on the
//     same backend (both run the same per-element kernel operations, just
//     strided across lanes) — strict on x86-64, like test_simd's
//     step-stage contract;
//   - quantized lanes are BIT-IDENTICAL (EXPECT_EQ) to the scalar
//     QuantizedDatapath — the quantized SIMD contract extends to batching;
//   - lanes are independent: a lane's results do not change with its
//     batchmates or the batch size;
//   - infer() performs zero steady-state heap allocations;
//   - malformed batches throw CheckError before touching any lane.
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

#include "data/dataset.hpp"
#include "fixedpoint/quantized_dfr.hpp"
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

Matrix random_series(std::size_t t_len, std::size_t channels, Rng& rng) {
  Matrix m(t_len, channels);
  for (std::size_t k = 0; k < t_len; ++k) {
    for (std::size_t v = 0; v < channels; ++v) m(k, v) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

/// Deployment-shaped model with random (but deterministic) weights; batched
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

void expect_bit_identical(std::span<const double> expected,
                          std::span<const double> got,
                          const std::string& context, double step = 0.0) {
  ASSERT_EQ(expected.size(), got.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
#if defined(__x86_64__) || defined(_M_X64)
    (void)step;
    ASSERT_EQ(expected[i], got[i]) << context << " i=" << i;
#else
    // Non-x86 scalar baselines may FMA-contract (see test_simd_quant.cpp's
    // file header); absorb one format step plus relative slack.
    ASSERT_NEAR(expected[i], got[i],
                1e-12 + 1e-9 * std::fabs(expected[i]) + 1.000001 * step)
        << context << " i=" << i;
#endif
  }
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

std::vector<const Matrix*> series_ptrs(const std::vector<Matrix>& batch) {
  std::vector<const Matrix*> ptrs;
  ptrs.reserve(batch.size());
  for (const Matrix& m : batch) ptrs.push_back(&m);
  return ptrs;
}

// ---- float lanes: ULP bound vs the scalar pipeline --------------------------

// Per lane, batched finalized features stay within the documented float SIMD
// bound of the scalar FloatDatapath pipeline — for every nonlinearity, Nx
// remainder, odd lane count, and available backend. Each lane carries a
// distinct series so a lane-index mixup cannot cancel out.
TEST(BatchedFloatEquivalence, FeaturesWithinUlpBoundAcrossShapesAndLanes) {
  constexpr std::size_t kTLen = 40;
  constexpr std::size_t kChannels = 3;
  Rng rng(42);
  for (NonlinearityKind kind : kAllKinds) {
    for (std::size_t nx : kRemainderSizes) {
      const LoadedModel model = make_model(nx, kChannels, 3, kind, 7 + nx);
      const ModelArtifactPtr artifact = model.artifact("m");
      InferenceEngine scalar_engine = make_engine(artifact);
      for (std::size_t lanes : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}}) {
        std::vector<Matrix> batch;
        for (std::size_t l = 0; l < lanes; ++l) {
          batch.push_back(random_series(kTLen, kChannels, rng));
        }
        const std::vector<const Matrix*> ptrs = series_ptrs(batch);
        for (simd::Backend b : available_backends()) {
          BatchedInferenceEngine engine =
              make_batched_engine(artifact, lanes, b);
          engine.infer(std::span<const Matrix* const>(ptrs));
          for (std::size_t l = 0; l < lanes; ++l) {
            const std::span<const double> ref =
                scalar_engine.features(batch[l]);
            double max_abs = 0.0;
            for (double r : ref) max_abs = std::max(max_abs, std::fabs(r));
            const double tol =
                (std::nextafter(max_abs,
                                std::numeric_limits<double>::infinity()) -
                 max_abs) *
                static_cast<double>(simd::simd_feature_ulp_bound(kTLen));
            const std::span<const double> got = engine.lane_features(l);
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i) {
              ASSERT_LE(std::fabs(got[i] - ref[i]), tol)
                  << simd::backend_name(b) << " " << nonlinearity_name(kind)
                  << " nx=" << nx << " lanes=" << lanes << " lane=" << l
                  << " i=" << i << " ref=" << ref[i] << " got=" << got[i];
            }
          }
        }
      }
    }
  }
}

// ---- float lanes: bit-identity vs the single-series SIMD engine -------------

// The stronger per-backend contract: a batched float lane runs the exact
// per-element operation sequence of the single-series SIMD engine on the
// same backend (the batched kernels perform the same correctly-rounded
// mul/add/fma per element, only strided across lanes), so logits and labels
// are bit-identical — strict on x86-64.
TEST(BatchedFloatEquivalence, BitIdenticalToSingleSeriesSimdEngine) {
  constexpr std::size_t kTLen = 35;
  constexpr std::size_t kChannels = 2;
  Rng rng(97);
  for (std::size_t nx : kRemainderSizes) {
    const LoadedModel model =
        make_model(nx, kChannels, 4, NonlinearityKind::kTanh, 11 + nx);
    const ModelArtifactPtr artifact = model.artifact("m");
    std::vector<Matrix> batch;
    for (int l = 0; l < 6; ++l) {
      batch.push_back(random_series(kTLen, kChannels, rng));
    }
    const std::vector<const Matrix*> ptrs = series_ptrs(batch);
    for (simd::Backend b : available_backends()) {
      SimdInferenceEngine single = make_simd_engine(artifact, b);
      BatchedInferenceEngine batched =
          make_batched_engine(artifact, batch.size(), b);
      batched.infer(std::span<const Matrix* const>(ptrs));
      for (std::size_t l = 0; l < batch.size(); ++l) {
        const std::span<const double> ref = single.infer(batch[l]);
        const std::string context = std::string(simd::backend_name(b)) +
                                    " nx=" + std::to_string(nx) +
                                    " lane=" + std::to_string(l);
        expect_bit_identical(ref, batched.lane_logits(l), context);
        EXPECT_EQ(batched.lane_label(l), single.classify(batch[l])) << context;
      }
    }
  }
}

// ---- quantized lanes: bit-identity vs the scalar quantized datapath ---------

// The quantized SIMD contract extends to batching: every lane's features,
// logits, and label are EXPECT_EQ-identical to the scalar QuantizedDatapath
// for every nonlinearity, odd Nx, lane count, and available backend.
TEST(BatchedQuantEquivalence, BitIdenticalToScalarQuantizedDatapath) {
  constexpr std::size_t kTLen = 40;
  constexpr std::size_t kChannels = 3;
  Rng rng(43);
  for (NonlinearityKind kind : kAllKinds) {
    for (std::size_t nx : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                           std::size_t{30}}) {
      const LoadedModel model = make_model(nx, kChannels, 3, kind, 19 + nx);
      auto quantized = std::make_shared<QuantizedDfr>(
          model, QuantizedInferenceConfig{});
      Dataset calib("calib", 3, kTLen, kChannels);
      for (int i = 0; i < 3; ++i) {
        calib.add({random_series(kTLen, kChannels, rng), i % 2});
      }
      quantized->calibrate(calib);
      QuantizedInferenceEngine scalar_engine = make_engine(quantized);
      const double feature_step =
          quantized->config().feature_format.resolution();
      for (std::size_t lanes : {std::size_t{1}, std::size_t{5},
                                std::size_t{8}}) {
        std::vector<Matrix> batch;
        for (std::size_t l = 0; l < lanes; ++l) {
          batch.push_back(random_series(kTLen, kChannels, rng));
        }
        const std::vector<const Matrix*> ptrs = series_ptrs(batch);
        for (simd::Backend b : available_backends()) {
          BatchedQuantizedInferenceEngine engine =
              make_batched_engine(quantized, lanes, b);
          engine.infer(std::span<const Matrix* const>(ptrs));
          for (std::size_t l = 0; l < lanes; ++l) {
            const std::string context =
                std::string(simd::backend_name(b)) + " " +
                nonlinearity_name(kind) + " nx=" + std::to_string(nx) +
                " lanes=" + std::to_string(lanes) +
                " lane=" + std::to_string(l);
            expect_bit_identical(scalar_engine.features(batch[l]),
                                 engine.lane_features(l),
                                 context + " features", feature_step);
            expect_bit_identical(scalar_engine.infer(batch[l]),
                                 engine.lane_logits(l), context + " logits",
                                 8.0 * feature_step);
            EXPECT_EQ(engine.lane_label(l), scalar_engine.classify(batch[l]))
                << context;
          }
        }
      }
    }
  }
}

// ---- lane independence ------------------------------------------------------

// A lane's results are a function of its own series only: the same series
// produces bit-identical logits whether it runs alone, in a full batch, or
// surrounded by different batchmates in a different lane position.
TEST(BatchedLaneIndependence, ResultsIgnoreBatchmatesAndLanePosition) {
  constexpr std::size_t kTLen = 30;
  constexpr std::size_t kChannels = 2;
  Rng rng(5);
  const LoadedModel model =
      make_model(13, kChannels, 3, NonlinearityKind::kSaturating, 3);
  const ModelArtifactPtr artifact = model.artifact("m");
  const Matrix probe = random_series(kTLen, kChannels, rng);

  for (simd::Backend b : available_backends()) {
    BatchedInferenceEngine engine = make_batched_engine(artifact, 8, b);

    // Alone.
    const Matrix* solo[] = {&probe};
    engine.infer(std::span<const Matrix* const>(solo, 1));
    const Vector ref(engine.lane_logits(0).begin(),
                     engine.lane_logits(0).end());
    const int ref_label = engine.lane_label(0);

    // In every lane position of a full batch of unrelated batchmates, twice
    // with different batchmates (scratch reuse must not leak across calls).
    for (int round = 0; round < 2; ++round) {
      for (std::size_t pos = 0; pos < 8; ++pos) {
        std::vector<Matrix> mates;
        for (std::size_t l = 0; l < 8; ++l) {
          mates.push_back(random_series(kTLen, kChannels, rng));
        }
        std::vector<const Matrix*> ptrs = series_ptrs(mates);
        ptrs[pos] = &probe;
        engine.infer(std::span<const Matrix* const>(ptrs));
        const std::string context = std::string(simd::backend_name(b)) +
                                    " pos=" + std::to_string(pos) +
                                    " round=" + std::to_string(round);
        const std::span<const double> got = engine.lane_logits(pos);
        ASSERT_EQ(got.size(), ref.size()) << context;
        for (std::size_t c = 0; c < ref.size(); ++c) {
          ASSERT_EQ(ref[c], got[c]) << context << " class " << c;
        }
        EXPECT_EQ(engine.lane_label(pos), ref_label) << context;
      }
    }
  }
}

// ---- zero-allocation steady state -------------------------------------------

// After construction, infer() + lane accessors allocate nothing: all SoA
// scratch is preallocated for max_lanes, and smaller batches reuse it.
TEST(BatchedEngine, InferAllocatesNothingInSteadyState) {
  Rng rng(9);
  const LoadedModel model =
      make_model(30, 2, 4, NonlinearityKind::kIdentity, 13);
  const ModelArtifactPtr artifact = model.artifact("m");
  std::vector<Matrix> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(random_series(40, 2, rng));
  const std::vector<const Matrix*> ptrs = series_ptrs(batch);

  BatchedInferenceEngine engine = make_batched_engine(artifact, 8);
  engine.infer(std::span<const Matrix* const>(ptrs));  // warm-up

  const std::size_t before = g_allocations.load();
  double sink = 0.0;
  for (int round = 0; round < 16; ++round) {
    // Vary the batch size: smaller batches must also reuse the scratch.
    const std::size_t lanes = (round % 2 == 0) ? ptrs.size() : 3;
    engine.infer(std::span<const Matrix* const>(ptrs.data(), lanes));
    for (std::size_t l = 0; l < lanes; ++l) {
      sink += engine.lane_logits(l)[0];
      sink += engine.lane_features(l)[0];
      sink += engine.lane_label(l);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u) << "sink=" << sink;
}

// ---- argument validation ----------------------------------------------------

TEST(BatchedEngine, MalformedBatchesThrow) {
  Rng rng(21);
  const LoadedModel model =
      make_model(8, 2, 3, NonlinearityKind::kIdentity, 55);
  const ModelArtifactPtr artifact = model.artifact("m");

  EXPECT_THROW((void)make_batched_engine(artifact, 0), CheckError);
  EXPECT_THROW((void)make_batched_engine(artifact, simd::kBatchedMaxLanes + 1),
               CheckError);

  BatchedInferenceEngine engine = make_batched_engine(artifact, 4);
  const Matrix good = random_series(20, 2, rng);

  // Empty batch.
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>()), CheckError);

  // More lanes than the engine preallocated.
  const Matrix* overflow[] = {&good, &good, &good, &good, &good};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(overflow, 5)),
               CheckError);

  // Null lane.
  const Matrix* with_null[] = {&good, nullptr};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(with_null, 2)),
               CheckError);

  // Mixed shapes in one batch.
  const Matrix shorter = random_series(10, 2, rng);
  const Matrix* mixed[] = {&good, &shorter};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(mixed, 2)),
               CheckError);

  // Channel mismatch and empty series.
  const Matrix wrong_channels = random_series(20, 3, rng);
  const Matrix* bad_ch[] = {&wrong_channels};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(bad_ch, 1)),
               CheckError);
  const Matrix empty(0, 2);
  const Matrix* no_rows[] = {&empty};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(no_rows, 1)),
               CheckError);

  // Lane accessors refuse indexes beyond the last batch size.
  const Matrix* solo[] = {&good};
  engine.infer(std::span<const Matrix* const>(solo, 1));
  EXPECT_THROW((void)engine.lane_logits(1), CheckError);
  EXPECT_THROW((void)engine.lane_label(1), CheckError);
  EXPECT_THROW((void)engine.lane_features(1), CheckError);
}

// Every lane count from 1 to kBatchedMaxLanes round-trips through infer() on
// every available backend — the kernels' lane loops handle every whole-vector
// / scalar-remainder split: labels match the scalar engine and logits are
// bit-identical to the single-series SIMD engine on the same backend. Each
// lane count runs on an engine sized to it, and on one engine per backend
// sized for kBatchedMaxLanes and reused across every lane count, as a server
// worker's scratch, sized for max_batch, serves every smaller batch.
TEST(BatchedEngine, EveryLaneCountUpToMaxWorks) {
  Rng rng(31);
  const LoadedModel model =
      make_model(5, 2, 3, NonlinearityKind::kCubic, 77);
  const ModelArtifactPtr artifact = model.artifact("m");
  InferenceEngine scalar_engine = make_engine(artifact);
  std::vector<BatchedInferenceEngine> widest;
  for (simd::Backend b : available_backends()) {
    widest.push_back(make_batched_engine(artifact, simd::kBatchedMaxLanes, b));
  }
  for (std::size_t lanes = 1; lanes <= simd::kBatchedMaxLanes; ++lanes) {
    std::vector<Matrix> batch;
    for (std::size_t l = 0; l < lanes; ++l) {
      batch.push_back(random_series(25, 2, rng));
    }
    const std::vector<const Matrix*> ptrs = series_ptrs(batch);
    std::size_t backend_index = 0;
    for (simd::Backend b : available_backends()) {
      SimdInferenceEngine single = make_simd_engine(artifact, b);
      BatchedInferenceEngine engine = make_batched_engine(artifact, lanes, b);
      engine.infer(std::span<const Matrix* const>(ptrs));
      BatchedInferenceEngine& reused = widest[backend_index++];
      reused.infer(std::span<const Matrix* const>(ptrs));
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::string context = std::string(simd::backend_name(b)) +
                                    " lanes=" + std::to_string(lanes) +
                                    " lane=" + std::to_string(l);
        EXPECT_EQ(engine.lane_label(l), scalar_engine.classify(batch[l]))
            << context;
        expect_bit_identical(single.infer(batch[l]), engine.lane_logits(l),
                             context);
        expect_bit_identical(single.infer(batch[l]), reused.lane_logits(l),
                             context + " on the widest engine");
      }
    }
  }
}

}  // namespace
}  // namespace dfr
