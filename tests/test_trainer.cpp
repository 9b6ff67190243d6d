// Integration tests for the Trainer (the paper's optimization protocol) and
// the grid-search baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/preprocess.hpp"
#include "data/synth.hpp"
#include "dfr/features.hpp"
#include "dfr/grid_search.hpp"
#include "dfr/trainer.hpp"
#include "util/rng.hpp"

namespace dfr {
namespace {

DatasetPair easy_task(std::uint64_t seed) {
  DatasetPair pair = generate_toy_task(/*num_classes=*/3, /*channels=*/2,
                                       /*length=*/40, /*train_per_class=*/12,
                                       /*test_per_class=*/8,
                                       /*difficulty=*/0.5, seed);
  standardize_pair(pair);
  return pair;
}

TrainerConfig small_config() {
  TrainerConfig config;
  config.nodes = 12;  // smaller than the paper's 30 for test speed
  return config;
}

TEST(Trainer, LearnsEasyTaskWellAboveChance) {
  const DatasetPair pair = easy_task(42);
  const Trainer trainer(small_config());
  const TrainResult model = trainer.fit(pair.train);
  const double test_acc = evaluate_accuracy(model, pair.test);
  EXPECT_GT(test_acc, 0.8) << "chance level is 1/3";
  EXPECT_EQ(model.history.size(), 25u);
  EXPECT_EQ(model.skipped_updates, 0u);
}

TEST(Trainer, LossDecreasesOverTrainingOnBenignTask) {
  DatasetPair pair = generate_toy_task(3, 2, 40, 12, 8, /*difficulty=*/0.3, 42);
  standardize_pair(pair);
  const TrainResult model = Trainer(small_config()).fit(pair.train);
  EXPECT_LT(model.history.back().mean_loss, model.history.front().mean_loss);
}

TEST(Trainer, MultistartPicksSmallestValidationLoss) {
  const DatasetPair pair = easy_task(33);
  const Trainer trainer(small_config());
  const auto restarts = Trainer::default_restarts();
  const TrainResult multi = trainer.fit_multistart(pair.train, restarts);
  // The winner's validation loss can't exceed any individual run's.
  for (const DfrParams& init : restarts) {
    TrainerConfig config = small_config();
    config.init = init;
    const TrainResult single = Trainer(config).fit(pair.train);
    EXPECT_LE(multi.validation_loss, single.validation_loss + 1e-12);
  }
  // Times accumulate across restarts.
  TrainerConfig config = small_config();
  const TrainResult single = Trainer(config).fit(pair.train);
  EXPECT_GT(multi.sgd_seconds, single.sgd_seconds);
}

TEST(Trainer, DeterministicGivenSeed) {
  const DatasetPair pair = easy_task(9);
  const Trainer trainer(small_config());
  const TrainResult a = trainer.fit(pair.train);
  const TrainResult b = trainer.fit(pair.train);
  EXPECT_EQ(a.params.a, b.params.a);
  EXPECT_EQ(a.params.b, b.params.b);
  EXPECT_EQ(a.chosen_beta, b.chosen_beta);
  EXPECT_TRUE(a.readout.weights() == b.readout.weights());
}

TEST(Trainer, SeedChangesMask) {
  const DatasetPair pair = easy_task(9);
  TrainerConfig c1 = small_config(), c2 = small_config();
  c2.seed = 777;
  const TrainResult a = Trainer(c1).fit(pair.train);
  const TrainResult b = Trainer(c2).fit(pair.train);
  EXPECT_FALSE(a.mask.weights() == b.mask.weights());
}

TEST(Trainer, LrScheduleFollowsPaperMilestones) {
  const DatasetPair pair = easy_task(11);
  TrainerConfig config = small_config();
  const TrainResult model = Trainer(config).fit(pair.train);
  ASSERT_EQ(model.history.size(), 25u);
  EXPECT_DOUBLE_EQ(model.history[0].lr_reservoir, 1.0);
  EXPECT_DOUBLE_EQ(model.history[4].lr_reservoir, 1.0);
  EXPECT_DOUBLE_EQ(model.history[5].lr_reservoir, 0.1);
  EXPECT_DOUBLE_EQ(model.history[10].lr_reservoir, 0.01);
  EXPECT_DOUBLE_EQ(model.history[20].lr_reservoir, 1e-4);
  EXPECT_DOUBLE_EQ(model.history[5].lr_output, 1.0);   // output decays later
  EXPECT_DOUBLE_EQ(model.history[10].lr_output, 0.1);
  EXPECT_DOUBLE_EQ(model.history[20].lr_output, 1e-3);
}

TEST(Trainer, ChoosesBetaFromPaperGrid) {
  const DatasetPair pair = easy_task(13);
  const TrainResult model = Trainer(small_config()).fit(pair.train);
  const auto& grid = paper_beta_grid();
  EXPECT_NE(std::find(grid.begin(), grid.end(), model.chosen_beta), grid.end());
}

TEST(Trainer, TruncatedMemoryFootprintIsTwoStates) {
  const DatasetPair pair = easy_task(15);
  TrainerConfig config = small_config();
  config.truncation_window = 1;
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_EQ(model.stored_state_values, 2 * config.nodes);
}

TEST(Trainer, FullBpttStoresWholeTrajectory) {
  const DatasetPair pair = easy_task(15);
  TrainerConfig config = small_config();
  config.truncation_window = 0;  // full BPTT
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_EQ(model.stored_state_values, (pair.train.length() + 1) * config.nodes);
  EXPECT_GT(evaluate_accuracy(model, pair.test), 0.7);
}

TEST(Trainer, WiderWindowAlsoLearns) {
  const DatasetPair pair = easy_task(17);
  TrainerConfig config = small_config();
  config.truncation_window = 8;
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_GT(evaluate_accuracy(model, pair.test), 0.7);
  EXPECT_EQ(model.stored_state_values, 9 * config.nodes);
}

TEST(Trainer, ParamBoxKeepsIteratesBounded) {
  const DatasetPair pair = easy_task(19);
  TrainerConfig config = small_config();
  config.param_box = 0.65;
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_LE(std::fabs(model.params.a), 0.65);
  EXPECT_LE(std::fabs(model.params.b), 0.65);
  for (const auto& epoch : model.history) {
    EXPECT_LE(std::fabs(epoch.a), 0.65);
    EXPECT_LE(std::fabs(epoch.b), 0.65);
  }
}

TEST(Trainer, NonSgdOptimizersAlsoTrain) {
  const DatasetPair pair = easy_task(21);
  for (auto kind : {OptimizerKind::kMomentum, OptimizerKind::kAdam}) {
    TrainerConfig config = small_config();
    config.optimizer = kind;
    // Stateful optimizers need their conventional lr scale, not the paper's
    // SGD lr = 1.
    config.base_lr_reservoir = (kind == OptimizerKind::kAdam) ? 0.01 : 0.1;
    config.base_lr_output = (kind == OptimizerKind::kAdam) ? 0.01 : 0.1;
    const TrainResult model = Trainer(config).fit(pair.train);
    EXPECT_GT(evaluate_accuracy(model, pair.test), 0.5)
        << optimizer_kind_name(kind);
  }
}

TEST(Trainer, PredictReturnsLabelsForEverySample) {
  const DatasetPair pair = easy_task(23);
  const TrainResult model = Trainer(small_config()).fit(pair.train);
  const auto preds = predict(model, pair.test);
  ASSERT_EQ(preds.size(), pair.test.size());
  for (int p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, pair.test.num_classes());
  }
}

TEST(Trainer, RidgePhaseMatchesPerSplitComposition) {
  // Phase 2 picks its fit and validation rows out of one pass over the
  // training set; the result must be the same bits as running the reservoir
  // over each split, sweep_ridge on those, then fit_ridge on every sample.
  const DatasetPair pair = easy_task(35);
  const TrainerConfig config = small_config();
  const TrainResult model = Trainer(config).fit(pair.train);

  // Replay the trainer's rng: the mask draw, one shuffle per epoch, the fork.
  Rng rng(config.seed);
  const Mask mask(config.nodes, pair.train.channels(), config.mask_kind, rng);
  ASSERT_EQ(mask.weights(), model.mask.weights());
  std::vector<std::size_t> order(pair.train.size());
  for (int epoch = 0; epoch < config.epochs; ++epoch) rng.shuffle(order);
  Rng split_rng = rng.fork(0x5B1D);
  const auto [fit_split, val_split] =
      pair.train.stratified_split(1.0 - config.validation_fraction, split_rng);

  const ModularReservoir reservoir(config.nodes, model.nonlinearity);
  auto features = [&](const Dataset& d) {
    return compute_features(reservoir, model.params, model.mask, d,
                            RepresentationKind::kDprr);
  };
  const RidgeSweep sweep = sweep_ridge(features(fit_split), features(val_split),
                                       pair.train.num_classes(), config.betas);
  EXPECT_EQ(model.chosen_beta, sweep.best().beta);
  EXPECT_EQ(model.validation_loss, sweep.best().selection_loss);
  const OutputLayer readout = fit_ridge(features(pair.train),
                                        pair.train.num_classes(), sweep.best().beta);
  EXPECT_EQ(model.readout.weights(), readout.weights());
  EXPECT_EQ(model.readout.bias(), readout.bias());
}

TEST(Trainer, RejectsEmptyDataset) {
  Dataset empty("e", 2, 4, 1);
  EXPECT_THROW((void)Trainer(small_config()).fit(empty), CheckError);
}

// ---- grid search ------------------------------------------------------------

GridSearchConfig small_grid_config() {
  GridSearchConfig config;
  config.nodes = 12;
  return config;
}

TEST(GridSearch, GridPointsAreSectionMidpoints) {
  const auto pts = grid_points(0.0, 1.0, 2);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0], 0.25);
  EXPECT_DOUBLE_EQ(pts[1], 0.75);
  const auto one = grid_points(-2.0, 2.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 0.0);  // divs=1 tests the range center
}

TEST(GridSearch, LevelEvaluatesAllCandidates) {
  const DatasetPair pair = easy_task(25);
  const GridLevelResult level =
      run_grid_level(small_grid_config(), pair.train, pair.test, 3);
  EXPECT_EQ(level.candidates.size(), 9u);
  EXPECT_EQ(level.divs, 3u);
  int valid = 0;
  for (const auto& c : level.candidates) {
    if (c.valid) ++valid;
  }
  EXPECT_GT(valid, 0);
  EXPECT_TRUE(level.best().valid);
  EXPECT_GT(level.best().test_accuracy, 0.5);
}

TEST(GridSearch, ParallelMatchesSerial) {
  const DatasetPair pair = easy_task(27);
  GridSearchConfig serial = small_grid_config();
  GridSearchConfig parallel = small_grid_config();
  parallel.threads = 4;
  const GridLevelResult a = run_grid_level(serial, pair.train, pair.test, 3);
  const GridLevelResult b = run_grid_level(parallel, pair.train, pair.test, 3);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.candidates[i].test_accuracy, b.candidates[i].test_accuracy);
    EXPECT_DOUBLE_EQ(a.candidates[i].validation_loss, b.candidates[i].validation_loss);
  }
  EXPECT_EQ(a.best_index, b.best_index);
}

/// One grid candidate as separate passes: features of the fit, validation,
/// train and test splits, sweep_ridge, then fit_ridge with the winner.
GridCandidate reference_candidate(const GridSearchConfig& config,
                                  const ModularReservoir& reservoir,
                                  const Mask& mask, const Dataset& fit_split,
                                  const Dataset& val_split,
                                  const DatasetPair& pair, double a, double b) {
  GridCandidate out;
  out.a = a;
  out.b = b;
  out.validation_loss = std::numeric_limits<double>::infinity();
  auto features = [&](const Dataset& d) {
    return compute_features(reservoir, DfrParams{a, b}, mask, d,
                            RepresentationKind::kDprr);
  };
  auto usable = [](const FeatureMatrix& fm) {
    return fm.features.all_finite() && fm.features.max_abs() < 1e120;
  };
  const FeatureMatrix fit_f = features(fit_split);
  const FeatureMatrix val_f = features(val_split);
  if (!usable(fit_f) || !usable(val_f)) return out;
  try {
    const RidgeSweep sweep =
        sweep_ridge(fit_f, val_f, pair.train.num_classes(), config.betas);
    out.beta = sweep.best().beta;
    const FeatureMatrix train_f = features(pair.train);
    const FeatureMatrix test_f = features(pair.test);
    if (!usable(train_f) || !usable(test_f)) return out;
    const OutputLayer layer =
        fit_ridge(train_f, pair.train.num_classes(), out.beta);
    out.validation_loss = sweep.best().selection_loss;
    out.test_accuracy = evaluate_accuracy(layer, test_f);
    out.valid = true;
  } catch (const CheckError&) {
  }
  return out;
}

GridLevelResult expect_level_matches_composition(const GridSearchConfig& config,
                                                 const DatasetPair& pair,
                                                 std::size_t divs) {
  GridLevelResult level = run_grid_level(config, pair.train, pair.test, divs);

  // The level's fixed mask and validation split (same seed protocol).
  Rng rng(config.seed);
  const ModularReservoir reservoir(config.nodes,
                                   Nonlinearity(config.nonlinearity, config.mg_exponent));
  const Mask mask(config.nodes, pair.train.channels(), config.mask_kind, rng);
  Rng split_rng = rng.fork(0x5B1D);
  const auto [fit_split, val_split] =
      pair.train.stratified_split(1.0 - config.validation_fraction, split_rng);

  const auto log_a = grid_points(config.log10_a_min, config.log10_a_max, divs);
  const auto log_b = grid_points(config.log10_b_min, config.log10_b_max, divs);
  EXPECT_EQ(level.candidates.size(), divs * divs);
  for (std::size_t idx = 0; idx < std::min(level.candidates.size(), divs * divs);
       ++idx) {
    const GridCandidate want = reference_candidate(
        config, reservoir, mask, fit_split, val_split, pair,
        std::pow(10.0, log_a[idx / divs]), std::pow(10.0, log_b[idx % divs]));
    const GridCandidate& got = level.candidates[idx];
    EXPECT_EQ(got.a, want.a) << idx;
    EXPECT_EQ(got.b, want.b) << idx;
    EXPECT_EQ(got.beta, want.beta) << idx;
    EXPECT_EQ(got.validation_loss, want.validation_loss) << idx;
    EXPECT_EQ(got.test_accuracy, want.test_accuracy) << idx;
    EXPECT_EQ(got.valid, want.valid) << idx;
  }
  return level;
}

TEST(GridSearch, LevelMatchesPerSplitComposition) {
  GridSearchConfig config = small_grid_config();
  config.threads = 4;
  const GridLevelResult level =
      expect_level_matches_composition(config, easy_task(37), 3);
  EXPECT_TRUE(level.best().valid);
}

TEST(GridSearch, LevelMatchesPerSplitCompositionWithDivergentCandidates) {
  // The cubic nonlinearity diverges at the large-(A, B) end of the box, so
  // the level mixes valid and invalid candidates.
  GridSearchConfig config = small_grid_config();
  config.nonlinearity = NonlinearityKind::kCubic;
  config.log10_a_max = 0.75;
  config.log10_b_max = 0.25;
  const GridLevelResult level =
      expect_level_matches_composition(config, easy_task(39), 3);
  const auto valid = std::count_if(level.candidates.begin(), level.candidates.end(),
                                   [](const GridCandidate& c) { return c.valid; });
  EXPECT_GT(valid, 0);
  EXPECT_LT(valid, static_cast<std::ptrdiff_t>(level.candidates.size()));
}

TEST(GridSearch, LevelMatchesPerSplitCompositionWithUnusableTestFeatures) {
  // One test series far outside the training scale overflows every
  // candidate's test features: the beta sweep succeeds, the candidate is
  // still invalid, and it keeps the beta its sweep chose.
  DatasetPair pair = easy_task(41);
  Matrix& series = pair.test[0].series;
  for (std::size_t t = 0; t < series.rows(); ++t) {
    for (double& v : series.row(t)) v *= 1e100;
  }
  const GridLevelResult level =
      expect_level_matches_composition(small_grid_config(), pair, 2);
  for (const GridCandidate& c : level.candidates) {
    EXPECT_FALSE(c.valid);
    EXPECT_GT(c.beta, 0.0);
  }
}

TEST(GridSearch, EscalationStopsWhenTargetReached) {
  const DatasetPair pair = easy_task(29);
  const EscalationResult result = escalate_grid_search(
      small_grid_config(), pair.train, pair.test, /*target_accuracy=*/0.0,
      /*max_divs=*/5);
  // Target 0 is reached by the very first level.
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.levels.size(), 1u);
}

TEST(GridSearch, EscalationExhaustsOnImpossibleTarget) {
  const DatasetPair pair = easy_task(31);
  const EscalationResult result = escalate_grid_search(
      small_grid_config(), pair.train, pair.test, /*target_accuracy=*/1.1,
      /*max_divs=*/2);
  EXPECT_FALSE(result.reached_target);
  EXPECT_EQ(result.levels.size(), 2u);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(GridSearch, MultistartBackpropMatchesGridSearchAccuracy) {
  // The paper's central claim at miniature scale: the backprop-trained DFR
  // (with the restart set the benches use) reaches the accuracy of a
  // moderately fine grid search.
  const DatasetPair pair = easy_task(33);
  const Trainer trainer(small_config());
  const TrainResult model =
      trainer.fit_multistart(pair.train, Trainer::default_restarts());
  const double bp_acc = evaluate_accuracy(model, pair.test);

  const GridLevelResult level =
      run_grid_level(small_grid_config(), pair.train, pair.test, 4);
  EXPECT_GE(bp_acc + 0.05, level.best().test_accuracy);
}

}  // namespace
}  // namespace dfr
