#include "dfr/grid_search.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "dfr/features.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dfr {

std::vector<double> grid_points(double lo, double hi, std::size_t divs) {
  DFR_CHECK(divs >= 1 && hi > lo);
  std::vector<double> points(divs);
  const double width = (hi - lo) / static_cast<double>(divs);
  for (std::size_t i = 0; i < divs; ++i) {
    points[i] = lo + (static_cast<double>(i) + 0.5) * width;
  }
  return points;
}

namespace {

GridCandidate evaluate_candidate(const GridSearchConfig& config,
                                 const ModularReservoir& reservoir,
                                 const Mask& mask,
                                 std::span<const std::size_t> fit_rows,
                                 std::span<const std::size_t> val_rows,
                                 const Dataset& train, const Dataset& test,
                                 double a, double b) {
  GridCandidate out;
  out.a = a;
  out.b = b;
  const DfrParams params{a, b};

  // A candidate is invalid when its reservoir diverges (non-finite states)
  // or its feature magnitudes overflow the normal-equation products (the
  // Gram matrix saturates to inf and Cholesky rejects it).
  auto usable = [](const FeatureMatrix& fm) {
    return fm.features.all_finite() && fm.features.max_abs() < 1e120;
  };
  auto invalidate = [&out] {
    out.valid = false;
    out.validation_loss = std::numeric_limits<double>::infinity();
  };

  // The fit and validation rows are rows of the train features (each row is
  // a pure function of its sample), so the reservoir runs once per sample.
  const FeatureMatrix train_features = compute_features(
      reservoir, params, mask, train, RepresentationKind::kDprr);
  if (!usable(train_features)) {
    invalidate();
    return out;
  }

  try {
    // Beta by validation loss, refit on the full training split, score test.
    const RidgeSelection selection = select_ridge(
        train_features, fit_rows, val_rows, train.num_classes(), config.betas);
    out.beta = selection.sweep.best().beta;
    out.validation_loss = selection.sweep.best().selection_loss;

    const FeatureMatrix test_features = compute_features(
        reservoir, params, mask, test, RepresentationKind::kDprr);
    if (!usable(test_features) || !selection.readout.has_value()) {
      invalidate();
      return out;
    }
    out.test_accuracy = evaluate_accuracy(*selection.readout, test_features);
    out.valid = true;
  } catch (const CheckError&) {
    invalidate();  // numerically degenerate normal equations
  }
  return out;
}

}  // namespace

GridLevelResult run_grid_level(const GridSearchConfig& config, const Dataset& train,
                               const Dataset& test, std::size_t divs) {
  DFR_CHECK(!train.empty() && !test.empty());
  Timer timer;

  // Mask and validation split are fixed across candidates and levels (same
  // seed), so levels differ only in the (A, B) grid — as in the paper.
  Rng rng(config.seed);
  const Nonlinearity f(config.nonlinearity, config.mg_exponent);
  const ModularReservoir reservoir(config.nodes, f);
  const Mask mask(config.nodes, train.channels(), config.mask_kind, rng);
  Rng split_rng = rng.fork(0x5B1D);
  auto [fit_rows, val_rows] = train.stratified_split_indices(
      1.0 - config.validation_fraction, split_rng);
  if (fit_rows.empty() || val_rows.empty()) {
    fit_rows.resize(train.size());
    std::iota(fit_rows.begin(), fit_rows.end(), std::size_t{0});
    val_rows = fit_rows;
  }

  const std::vector<double> log_a =
      grid_points(config.log10_a_min, config.log10_a_max, divs);
  const std::vector<double> log_b =
      grid_points(config.log10_b_min, config.log10_b_max, divs);

  GridLevelResult result;
  result.divs = divs;
  result.candidates.resize(divs * divs);

  // Candidate idx owns slot idx of `candidates` and nothing else, so the
  // level is bit-identical for any thread count; the best-candidate scan
  // below runs serially in index order, which also fixes tie-breaking.
  parallel_for(
      result.candidates.size(),
      [&](std::size_t idx) {
        const double a = std::pow(10.0, log_a[idx / divs]);
        const double b = std::pow(10.0, log_b[idx % divs]);
        result.candidates[idx] = evaluate_candidate(
            config, reservoir, mask, fit_rows, val_rows, train, test, a, b);
      },
      {.threads = config.threads});

  double best_loss = std::numeric_limits<double>::infinity();
  double best_acc = -1.0;
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const GridCandidate& c = result.candidates[i];
    if (!c.valid) continue;
    if (c.validation_loss < best_loss) {
      best_loss = c.validation_loss;
      result.best_index = i;
    }
    if (c.test_accuracy > best_acc) {
      best_acc = c.test_accuracy;
      result.best_test_index = i;
    }
  }
  result.seconds = timer.elapsed_seconds();
  return result;
}

EscalationResult escalate_grid_search(const GridSearchConfig& config,
                                      const Dataset& train, const Dataset& test,
                                      double target_accuracy,
                                      std::size_t max_divs) {
  EscalationResult out;
  for (std::size_t divs = 1; divs <= max_divs; ++divs) {
    GridLevelResult level = run_grid_level(config, train, test, divs);
    out.total_seconds += level.seconds;
    const bool hit = level.best_by_test().valid &&
                     level.best_by_test().test_accuracy >= target_accuracy - 1e-12;
    log_debug("grid divs=", divs,
              " best acc=", level.best_by_test().test_accuracy,
              " target=", target_accuracy);
    out.levels.push_back(std::move(level));
    if (hit) {
      out.reached_target = true;
      break;
    }
  }
  return out;
}

}  // namespace dfr
