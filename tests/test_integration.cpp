// Cross-module integration tests: the full pipeline on paper-shaped data,
// thread-determinism of feature extraction, and end-to-end serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "data/preprocess.hpp"
#include "util/rng.hpp"
#include "data/specs.hpp"
#include "data/synth.hpp"
#include "dfr/features.hpp"
#include "dfr/grid_search.hpp"
#include "dfr/model_io.hpp"
#include "dfr/trainer.hpp"
#include "serve/engine.hpp"

namespace dfr {
namespace {

DatasetPair small_spec_pair(const std::string& id, std::size_t cap) {
  DatasetSpec spec = *find_spec(id);
  spec.train_size = std::min(spec.train_size, cap);
  spec.test_size = std::min(spec.test_size, cap);
  DatasetPair pair = generate_synthetic(spec);
  standardize_pair(pair);
  return pair;
}

TEST(Integration, FullPipelineOnPaperShapedDataset) {
  // JPVOW shape: 12 channels, T=28, 9 classes — small enough for a test.
  const DatasetPair pair = small_spec_pair("JPVOW", 90);
  TrainerConfig config;
  config.nodes = 30;  // the paper's evaluation setting
  const TrainResult model =
      Trainer(config).fit_multistart(pair.train, Trainer::default_restarts());
  const double acc = evaluate_accuracy(model, pair.test);
  EXPECT_GT(acc, 0.8);  // chance is 1/9

  // The model must round-trip through serialization with identical
  // predictions on every test sample.
  const auto path =
      (std::filesystem::temp_directory_path() / "dfr_integration.dfrm").string();
  save_model(model, path);
  const LoadedModel loaded = load_model(path);
  std::remove(path.c_str());
  const auto reference = predict(model, pair.test);
  // The scalar engine: exact equality against the scalar training-side
  // predictions; SIMD-vs-scalar tolerance is test_simd.cpp's contract, not
  // this test's.
  InferenceEngine engine = make_engine(loaded);
  for (std::size_t i = 0; i < pair.test.size(); ++i) {
    EXPECT_EQ(engine.classify(pair.test[i].series), reference[i]) << i;
  }
}

TEST(Integration, FeatureExtractionIsThreadDeterministic) {
  const DatasetPair pair = small_spec_pair("ECG", 60);
  Rng rng(3);
  const ModularReservoir reservoir(30, Nonlinearity{});
  const Mask mask(30, pair.train.channels(), MaskKind::kBinary, rng);
  const DfrParams params{0.2, 0.3};
  const FeatureMatrix serial = compute_features(
      reservoir, params, mask, pair.train, RepresentationKind::kDprr, 1);
  const FeatureMatrix parallel = compute_features(
      reservoir, params, mask, pair.train, RepresentationKind::kDprr, 8);
  EXPECT_TRUE(serial.features == parallel.features);
  EXPECT_EQ(serial.labels, parallel.labels);
}

TEST(Integration, GridSearchAndTrainerShareTheLandscape) {
  // The (A, B) the trainer selects must score comparably to the same (A, B)
  // evaluated through the grid-search candidate machinery — i.e. the two
  // pipelines (trainer ridge refit vs grid candidate refit) agree about the
  // model quality at a given operating point.
  const DatasetPair pair = small_spec_pair("ECG", 80);
  TrainerConfig tconfig;
  tconfig.nodes = 30;
  const TrainResult model =
      Trainer(tconfig).fit_multistart(pair.train, Trainer::default_restarts());
  const double trainer_acc = evaluate_accuracy(model, pair.test);

  GridSearchConfig gconfig;
  gconfig.nodes = 30;
  // One-point "grid" exactly at the trainer's solution.
  const double log_a = std::log10(std::max(1e-6, std::fabs(model.params.a)));
  const double log_b = std::log10(std::max(1e-6, std::fabs(model.params.b)));
  gconfig.log10_a_min = log_a - 1e-9;
  gconfig.log10_a_max = log_a + 1e-9;
  gconfig.log10_b_min = log_b - 1e-9;
  gconfig.log10_b_max = log_b + 1e-9;
  const GridLevelResult level = run_grid_level(gconfig, pair.train, pair.test, 1);
  ASSERT_TRUE(level.best().valid);
  // Sign of A/B may differ (symmetric solutions) and masks/splits are from
  // the same seed; allow a modest tolerance.
  EXPECT_NEAR(level.best().test_accuracy, trainer_acc, 0.15);
}

TEST(Integration, EscalationTotalsAreSumOfLevels) {
  const DatasetPair pair = small_spec_pair("ECG", 50);
  GridSearchConfig config;
  config.nodes = 12;
  const EscalationResult result =
      escalate_grid_search(config, pair.train, pair.test, 1.1, 3);
  ASSERT_EQ(result.levels.size(), 3u);
  double sum = 0.0;
  for (const auto& level : result.levels) sum += level.seconds;
  EXPECT_NEAR(result.total_seconds, sum, 1e-9);
  EXPECT_EQ(result.levels[0].candidates.size(), 1u);
  EXPECT_EQ(result.levels[1].candidates.size(), 4u);
  EXPECT_EQ(result.levels[2].candidates.size(), 9u);
}

}  // namespace
}  // namespace dfr
