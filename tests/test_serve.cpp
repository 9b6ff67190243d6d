// Tests for the unified streaming inference engine (serve/engine.hpp):
// bit-identity against the trajectory-matrix reference pipeline (float and
// quantized), batch classification determinism for any thread count, input
// validation, and the zero-steady-state-allocation guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "data/preprocess.hpp"
#include "data/synth.hpp"
#include "dfr/features.hpp"
#include "dfr/representation.hpp"
#include "dfr/trainer.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

// ---- allocation instrumentation -------------------------------------------
// Replace global operator new/delete with counting malloc/free wrappers. The
// steady-state test snapshots the counter around repeated classify() calls;
// every other test simply runs with counting enabled.

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

/// The pre-refactor float inference pipeline, kept as the bit-exactness
/// reference: full (T+1) x Nx trajectory -> batch DPRR -> readout.
Vector reference_float_features(const LoadedModel& model, const Matrix& series) {
  const ModularReservoir reservoir(model.mask.nodes(), model.nonlinearity);
  const Matrix states = reservoir.run_series(model.mask, series, model.params);
  return compute_representation(RepresentationKind::kDprr, states);
}

/// The pre-refactor quantized per-series loop, kept as the bit-exactness
/// reference for the fixed-point datapath.
Vector reference_quantized_features(const QuantizedDfr& qdfr,
                                    const Matrix& series) {
  const LoadedModel& model = qdfr.model();
  const std::size_t nx = model.mask.nodes();
  const FixedPointFormat& state_fmt = qdfr.config().state_format;
  const double inv_state = 1.0 / qdfr.scales().state;

  Vector x_prev(nx, 0.0), x_cur(nx, 0.0);
  DprrAccumulator dprr(nx);
  for (std::size_t k = 0; k < series.rows(); ++k) {
    Vector j = model.mask.apply(series.row(k));
    for (double& v : j) v = state_fmt.quantize(v * inv_state);
    double prev_node = x_prev[nx - 1];
    for (std::size_t n = 0; n < nx; ++n) {
      const double s = state_fmt.quantize(j[n] + x_prev[n]);
      const double value =
          model.params.a * model.nonlinearity.value(s) +
          model.params.b * prev_node;
      prev_node = state_fmt.quantize(value);
      x_cur[n] = prev_node;
    }
    dprr.add(x_cur, x_prev);
    std::swap(x_prev, x_cur);
  }
  Vector r = dprr.features();
  scale(r, dprr_time_scale(series.rows()) / qdfr.scales().feature);
  qdfr.config().feature_format.quantize(r);
  return r;
}

class ServeEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new DatasetPair(generate_toy_task(3, 2, 40, 16, 10, 0.5, 7));
    standardize_pair(*pair_);
    TrainerConfig config;
    config.nodes = 10;
    const TrainResult trained = Trainer(config).fit(pair_->train);
    model_ = new LoadedModel{trained.params, trained.mask, trained.nonlinearity,
                             trained.readout, trained.chosen_beta};
    quantized_ = new QuantizedDfr(*model_, QuantizedInferenceConfig{});
    quantized_->calibrate(pair_->train);
  }
  static void TearDownTestSuite() {
    delete pair_;
    delete model_;
    delete quantized_;
    pair_ = nullptr;
    model_ = nullptr;
    quantized_ = nullptr;
  }
  static DatasetPair* pair_;
  static LoadedModel* model_;
  static QuantizedDfr* quantized_;
};

DatasetPair* ServeEngine::pair_ = nullptr;
LoadedModel* ServeEngine::model_ = nullptr;
QuantizedDfr* ServeEngine::quantized_ = nullptr;

TEST_F(ServeEngine, FloatFeaturesBitIdenticalToTrajectoryPipeline) {
  InferenceEngine engine = make_engine(*model_);
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    const Matrix& series = pair_->test[i].series;
    const Vector reference = reference_float_features(*model_, series);
    const std::span<const double> streamed = engine.features(series);
    ASSERT_EQ(streamed.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      ASSERT_EQ(streamed[k], reference[k]) << "sample " << i << " feature " << k;
    }
  }
}

TEST_F(ServeEngine, FloatLogitsBitIdenticalToReadoutOnReferenceFeatures) {
  InferenceEngine engine = make_engine(*model_);
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    const Matrix& series = pair_->test[i].series;
    const Vector reference =
        model_->readout.logits(reference_float_features(*model_, series));
    const std::span<const double> logits = engine.infer(series);
    ASSERT_EQ(logits.size(), reference.size());
    for (std::size_t c = 0; c < reference.size(); ++c) {
      ASSERT_EQ(logits[c], reference[c]) << "sample " << i << " class " << c;
    }
    EXPECT_EQ(engine.classify(series),
              static_cast<int>(std::max_element(reference.begin(),
                                                reference.end()) -
                               reference.begin()));
  }
}

TEST_F(ServeEngine, QuantizedFeaturesBitIdenticalToLegacyLoop) {
  QuantizedInferenceEngine engine = make_engine(*quantized_);
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    const Matrix& series = pair_->test[i].series;
    const Vector reference = reference_quantized_features(*quantized_, series);
    const std::span<const double> streamed = engine.features(series);
    ASSERT_EQ(streamed.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      ASSERT_EQ(streamed[k], reference[k]) << "sample " << i << " feature " << k;
    }
    EXPECT_EQ(engine.classify(series),
              quantized_->quantized_readout().predict(reference));
  }
}

TEST_F(ServeEngine, LoadedModelInferClassifyProbabilitiesAgree) {
  const Matrix& series = pair_->test[0].series;
  const Vector logits = model_->infer(series);
  EXPECT_EQ(static_cast<std::size_t>(model_->readout.num_classes()),
            logits.size());
  const int predicted = model_->classify(series);
  EXPECT_EQ(predicted,
            static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                             logits.begin()));
  const Vector probs = model_->probabilities(series);
  const Vector expected = softmax(logits);
  ASSERT_EQ(probs.size(), expected.size());
  for (std::size_t c = 0; c < probs.size(); ++c) {
    EXPECT_EQ(probs[c], expected[c]);
  }
}

TEST_F(ServeEngine, ComputeFeaturesMatchesEngineRows) {
  const ModularReservoir reservoir(model_->mask.nodes(), model_->nonlinearity);
  const FeatureMatrix fm =
      compute_features(reservoir, model_->params, model_->mask, pair_->test,
                       RepresentationKind::kDprr, 1);
  InferenceEngine engine = make_engine(*model_);
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    const std::span<const double> r = engine.features(pair_->test[i].series);
    const std::span<const double> row = fm.features.row(i);
    ASSERT_EQ(r.size(), row.size());
    for (std::size_t k = 0; k < r.size(); ++k) ASSERT_EQ(r[k], row[k]);
  }
}

TEST_F(ServeEngine, ClassifyBatchDeterministicAcrossThreadCounts) {
  std::vector<Matrix> batch;
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    batch.push_back(pair_->test[i].series);
  }
  const std::span<const Matrix> series(batch);

  // Per-series reference, in order, from the SIMD engine on the same
  // (active) backend the batch resolves: this test pins exact thread-count
  // determinism; determinism under every forced backend is test_simd.cpp's
  // ClassifyBatchDeterministicUnderForcedDispatch.
  std::vector<int> reference;
  SimdInferenceEngine engine = make_simd_engine(*model_);
  reference.reserve(batch.size());
  for (const Matrix& m : batch) reference.push_back(engine.classify(m));

  for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
    EXPECT_EQ(classify_batch(*model_, series, threads), reference)
        << "threads=" << threads;
  }
  EXPECT_EQ(classify_batch(*model_, pair_->test, 2), reference);
}

TEST_F(ServeEngine, QuantizedBatchMatchesPerSeriesClassify) {
  std::vector<int> reference;
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    reference.push_back(quantized_->classify(pair_->test[i].series));
  }
  for (unsigned threads : {1u, 4u}) {
    EXPECT_EQ(classify_batch(*quantized_, pair_->test, threads), reference);
  }
}

TEST_F(ServeEngine, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(classify_batch(*model_, std::span<const Matrix>{}, 4).empty());
  EXPECT_TRUE(classify_batch(*quantized_, std::span<const Matrix>{}, 4).empty());
  EXPECT_TRUE(classify_batch(*model_, std::span<const Matrix>{}, 0).empty());
}

TEST_F(ServeEngine, BatchSmallerThanThreadsMatchesSerial) {
  // Fewer series than worker slots: the chunking must neither drop nor
  // duplicate work for any datapath.
  std::vector<Matrix> small;
  for (std::size_t i = 0; i < 3; ++i) small.push_back(pair_->test[i].series);
  const std::span<const Matrix> series(small);

  const std::vector<int> serial = classify_batch(*model_, series, 1);
  ASSERT_EQ(serial.size(), small.size());
  for (unsigned threads : {8u, 16u, 0u}) {
    EXPECT_EQ(classify_batch(*model_, series, threads), serial)
        << "threads=" << threads;
  }
  const std::vector<int> quant_serial = classify_batch(*quantized_, series, 1);
  for (unsigned threads : {8u, 16u, 0u}) {
    EXPECT_EQ(classify_batch(*quantized_, series, threads), quant_serial)
        << "threads=" << threads;
  }
}

TEST_F(ServeEngine, DatasetAndSpanOverloadsAgreeAtEveryThreadCount) {
  std::vector<Matrix> batch;
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    batch.push_back(pair_->test[i].series);
  }
  const std::span<const Matrix> series(batch);

  for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
    EXPECT_EQ(classify_batch(*model_, pair_->test, threads),
              classify_batch(*model_, series, threads))
        << "threads=" << threads;
  }
  for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
    EXPECT_EQ(classify_batch(*quantized_, pair_->test, threads),
              classify_batch(*quantized_, series, threads))
        << "threads=" << threads;
  }
}

TEST_F(ServeEngine, ArtifactOverloadMatchesLoadedModelOverload) {
  std::vector<Matrix> batch;
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    batch.push_back(pair_->test[i].series);
  }
  const std::span<const Matrix> series(batch);
  const ModelArtifactPtr artifact = model_->artifact("m");
  for (unsigned threads : {1u, 4u}) {
    EXPECT_EQ(classify_batch(artifact, series, threads),
              classify_batch(*model_, series, threads));
    EXPECT_EQ(classify_batch(artifact, pair_->test, threads),
              classify_batch(*model_, pair_->test, threads));
  }
}

TEST_F(ServeEngine, EngineOutlivesTheLoadedModelItWasBuiltFrom) {
  // The ownership contract: engines snapshot the model into a shared
  // artifact, so a stack LoadedModel may die before the engine serves.
  const Matrix& series = pair_->test[0].series;
  const int expected = make_engine(*model_).classify(series);
  auto engine = [&] {
    const LoadedModel short_lived{model_->params, model_->mask,
                                  model_->nonlinearity, model_->readout,
                                  model_->chosen_beta};
    return make_engine(short_lived);
  }();  // short_lived is gone; the engine's artifact keeps the weights alive
  EXPECT_EQ(engine.classify(series), expected);
}

TEST_F(ServeEngine, RejectsMalformedSeries) {
  InferenceEngine engine = make_engine(*model_);
  Matrix wrong_channels(5, model_->mask.channels() + 1);
  EXPECT_THROW(engine.classify(wrong_channels), CheckError);
  Matrix empty_series(0, model_->mask.channels());
  EXPECT_THROW(engine.classify(empty_series), CheckError);
}

TEST_F(ServeEngine, FeaturesOnlyDatapathRejectsInfer) {
  InferenceEngine engine(FloatDatapath(model_->mask, model_->params,
                                       model_->nonlinearity));
  EXPECT_NO_THROW(engine.features(pair_->test[0].series));
  EXPECT_THROW(engine.infer(pair_->test[0].series), CheckError);
}

TEST_F(ServeEngine, ClassifyIsAllocationFreeInSteadyState) {
  InferenceEngine engine = make_engine(*model_);
  QuantizedInferenceEngine quant_engine = make_engine(*quantized_);
  const Matrix& series = pair_->test[0].series;
  // Warmup: scratch was allocated at construction; nothing further is lazy,
  // but run once anyway so any one-time effects are behind us.
  engine.classify(series);
  quant_engine.classify(series);

  const std::size_t before = g_allocations.load();
  int sink = 0;
  for (int rep = 0; rep < 100; ++rep) {
    for (std::size_t i = 0; i < pair_->test.size(); ++i) {
      sink += engine.classify(pair_->test[i].series);
      sink += quant_engine.classify(pair_->test[i].series);
    }
  }
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after, before) << "classify() must not allocate after warmup";
  EXPECT_GE(sink, 0);  // keep the loop observable
}

}  // namespace
}  // namespace dfr
