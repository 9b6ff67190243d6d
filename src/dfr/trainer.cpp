#include "dfr/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dfr/features.hpp"
#include "dfr/metrics.hpp"
#include "opt/schedule.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dfr {
namespace {

double clip(double v, double limit) {
  if (limit <= 0.0) return v;
  return std::clamp(v, -limit, limit);
}

}  // namespace

Trainer::Trainer(TrainerConfig config) : config_(std::move(config)) {
  DFR_CHECK(config_.nodes > 0 && config_.epochs > 0);
  DFR_CHECK(config_.validation_fraction > 0.0 && config_.validation_fraction < 1.0);
}

TrainResult Trainer::fit(const Dataset& train) const {
  DFR_CHECK_MSG(!train.empty(), "cannot train on an empty dataset");
  Rng rng(config_.seed);

  const Nonlinearity f(config_.nonlinearity, config_.mg_exponent);
  const ModularReservoir reservoir(config_.nodes, f);
  Mask mask(config_.nodes, train.channels(), config_.mask_kind, rng);
  const std::size_t nr = dprr_dim(config_.nodes);
  const bool full_bptt = config_.truncation_window == 0;
  const std::size_t window =
      full_bptt ? train.length() : std::min(config_.truncation_window, train.length());

  DfrParams params = config_.init;
  OutputLayer output(train.num_classes(), nr);

  const StepSchedule lr_res(config_.base_lr_reservoir, config_.reservoir_milestones,
                            config_.lr_decay);
  const StepSchedule lr_out(config_.base_lr_output, config_.output_milestones,
                            config_.lr_decay);

  Optimizer reservoir_opt({config_.optimizer});
  Optimizer output_opt({config_.optimizer});
  // One reservoir update: the normalized step, or the clipped mean gradient
  // (`divisor` samples: 1 per sample, train.size() per epoch), then the
  // optimizer step and the box clamp.
  const auto update_reservoir = [&](double da, double db, double divisor,
                                    double lr) {
    if (config_.normalized_step_scale > 0.0) {
      const double norm = std::hypot(da, db);
      if (norm > 0.0) {
        da = config_.normalized_step_scale * da / norm;
        db = config_.normalized_step_scale * db / norm;
      }
    } else {
      da = clip(da / divisor, config_.grad_clip);
      db = clip(db / divisor, config_.grad_clip);
    }
    double ab[2] = {params.a, params.b};
    const double grad_ab[2] = {da, db};
    reservoir_opt.step(std::span<double>(ab, 2),
                       std::span<const double>(grad_ab, 2), lr);
    if (config_.param_box > 0.0) {
      ab[0] = std::clamp(ab[0], -config_.param_box, config_.param_box);
      ab[1] = std::clamp(ab[1], -config_.param_box, config_.param_box);
    }
    params.a = ab[0];
    params.b = ab[1];
  };
  const bool sgd_fast_path = config_.optimizer == OptimizerKind::kSgd;
  Vector flat_output_grad;  // only for non-SGD optimizers

  TrainResult result;
  result.params = params;
  result.mask = mask;
  result.nonlinearity = f;

  Timer sgd_timer;
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // One lockstep forward per fit (memory-bounded unless full BPTT was
  // requested, whose window is the whole series). While (A, B) stay fixed
  // for the epoch, each kLanes consecutive samples of the shuffled order run
  // as one group; the output step, backprop and update then run per sample
  // in that order, so every result is the one-sample-at-a-time result.
  // Per-sample reservoir updates move (A, B) after every sample, so there
  // the group is one sample.
  const std::size_t group =
      config_.reservoir_epoch_update ? ForwardLanes::kLanes : 1;
  ForwardLanes forward(reservoir, mask, train.length(), window, group);
  result.stored_state_values = forward.stored_state_values();
  Vector dprr_features(nr);
  const Matrix* series[ForwardLanes::kLanes];

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    const double lr_reservoir = lr_res.lr_at(epoch);
    const double lr_output = lr_out.lr_at(epoch);
    double loss_sum = 0.0;

    double epoch_da = 0.0, epoch_db = 0.0;
    for (std::size_t first = 0; first < order.size(); first += group) {
      const std::size_t lanes = std::min(group, order.size() - first);
      for (std::size_t l = 0; l < lanes; ++l) {
        series[l] = &train[order[first + l]].series;
      }
      forward.run(params, std::span<const Matrix* const>(series, lanes));

      for (std::size_t l = 0; l < lanes; ++l) {
        const Sample& sample = train[order[first + l]];

        // The output layer consumes time-averaged DPRR features (dprr.hpp);
        // the backprop engine keeps raw-sum semantics, so dL/d(sum) =
        // time_scale * dL/d(avg).
        const double time_scale = dprr_time_scale(sample.series.rows());
        const Vector& r = forward.dprr(l);
        for (std::size_t f = 0; f < nr; ++f) {
          dprr_features[f] = r[f] * time_scale;
        }
        OutputLayer::Backward out_grads =
            output.backward(dprr_features, sample.label);
        scale(out_grads.dfeatures, time_scale);
        const Matrix& tail_j = forward.tail_j(l);
        const ReservoirGradients res_grads = backprop_through_dprr(
            reservoir, params, forward.tail_states(l), tail_j,
            out_grads.dfeatures, tail_j.rows(), config_.threads);
        loss_sum += out_grads.loss;

        const double da = res_grads.da;
        const double db = res_grads.db;
        if (!std::isfinite(da) || !std::isfinite(db) ||
            !all_finite(out_grads.dlogits)) {
          ++result.skipped_updates;
          continue;
        }
        if (config_.reservoir_epoch_update) {
          epoch_da += da;
          epoch_db += db;
        } else {
          update_reservoir(da, db, 1.0, lr_reservoir);
        }

        // Output layer update.
        double lr_output_eff = lr_output;
        if (config_.nlms_output) {
          lr_output_eff /= 1.0 + out_grads.features_sq;
        }
        if (sgd_fast_path) {
          output.apply_gradient(out_grads, dprr_features, lr_output_eff);
        } else {
          // Materialize the flat gradient [vec(dW), db] for stateful
          // optimizers.
          const std::size_t ny = out_grads.dlogits.size();
          flat_output_grad.assign(ny * nr + ny, 0.0);
          for (std::size_t c = 0; c < ny; ++c) {
            const double dz = out_grads.dlogits[c];
            double* row = flat_output_grad.data() + c * nr;
            for (std::size_t r_i = 0; r_i < nr; ++r_i) {
              row[r_i] = dz * dprr_features[r_i];
            }
            flat_output_grad[ny * nr + c] = dz;
          }
          // Pack parameters, step, unpack.
          Vector flat_params(ny * nr + ny);
          for (std::size_t c = 0; c < ny; ++c) {
            const auto row = output.weights().row(c);
            std::copy(row.begin(), row.end(), flat_params.begin() + c * nr);
            flat_params[ny * nr + c] = output.bias()[c];
          }
          output_opt.step(flat_params, flat_output_grad, lr_output_eff);
          for (std::size_t c = 0; c < ny; ++c) {
            std::copy(flat_params.begin() + c * nr,
                      flat_params.begin() + (c + 1) * nr,
                      output.mutable_weights().row(c).begin());
            output.mutable_bias()[c] = flat_params[ny * nr + c];
          }
        }
      }
    }

    if (config_.reservoir_epoch_update &&
        std::isfinite(epoch_da) && std::isfinite(epoch_db)) {
      update_reservoir(epoch_da, epoch_db, static_cast<double>(train.size()),
                       lr_reservoir);
    }

    result.history.push_back({epoch,
                              loss_sum / static_cast<double>(train.size()),
                              params.a, params.b, lr_reservoir, lr_output});
    log_debug("epoch ", epoch, ": loss=", result.history.back().mean_loss,
              " A=", params.a, " B=", params.b);
  }
  result.sgd_seconds = sgd_timer.elapsed_seconds();
  result.params = params;

  // Phase 2: ridge refit of the output layer with beta selection. The fit
  // and validation rows are picked out of one pass over the training set.
  Timer ridge_timer;
  Rng split_rng = rng.fork(0x5B1D);
  auto [fit_rows, val_rows] = train.stratified_split_indices(
      1.0 - config_.validation_fraction, split_rng);
  if (fit_rows.empty() || val_rows.empty()) {
    // Degenerate fallback for tiny datasets: fit and select on every sample.
    fit_rows.resize(train.size());
    std::iota(fit_rows.begin(), fit_rows.end(), std::size_t{0});
    val_rows = fit_rows;
  }

  const FeatureMatrix features =
      compute_features(reservoir, params, mask, train,
                       RepresentationKind::kDprr, config_.threads);
  RidgeSelection selection = select_ridge(features, fit_rows, val_rows,
                                          train.num_classes(), config_.betas);
  DFR_CHECK_MSG(selection.readout.has_value(),
                "ridge system is not positive definite");
  result.chosen_beta = selection.sweep.best().beta;
  result.validation_loss = selection.sweep.best().selection_loss;
  result.readout = std::move(*selection.readout);
  result.ridge_seconds = ridge_timer.elapsed_seconds();
  result.mask = mask;
  return result;
}

TrainResult Trainer::fit_multistart(
    const Dataset& train, std::span<const DfrParams> initial_points) const {
  DFR_CHECK_MSG(!initial_points.empty(), "need at least one initial point");
  // Restarts are independent given their initial point, so they run one per
  // pool slot; the winner is then selected serially in index order, which
  // keeps the strict-< tie-breaking identical to the sequential loop.
  std::vector<TrainResult> candidates(initial_points.size());
  parallel_for(
      initial_points.size(),
      [&](std::size_t i) {
        TrainerConfig config = config_;
        config.init = initial_points[i];
        candidates[i] = Trainer(config).fit(train);
      },
      {.threads = config_.threads});

  TrainResult best;
  bool have_best = false;
  double total_sgd = 0.0, total_ridge = 0.0;
  for (TrainResult& candidate : candidates) {
    total_sgd += candidate.sgd_seconds;
    total_ridge += candidate.ridge_seconds;
    if (!have_best || candidate.validation_loss < best.validation_loss) {
      best = std::move(candidate);
      have_best = true;
    }
  }
  best.sgd_seconds = total_sgd;
  best.ridge_seconds = total_ridge;
  return best;
}

std::vector<DfrParams> Trainer::default_restarts() {
  // The paper's initial point plus three points spanning the useful range of
  // its grid-search box; validation loss picks the winner.
  return {{0.01, 0.01}, {0.1, 0.1}, {0.3, 0.3}, {0.5, 0.45}};
}

double evaluate_accuracy(const TrainResult& model, const Dataset& dataset) {
  const ModularReservoir reservoir(model.mask.nodes(), model.nonlinearity);
  const FeatureMatrix features = compute_features(
      reservoir, model.params, model.mask, dataset, RepresentationKind::kDprr);
  return evaluate_accuracy(model.readout, features);
}

std::vector<int> predict(const TrainResult& model, const Dataset& dataset) {
  const ModularReservoir reservoir(model.mask.nodes(), model.nonlinearity);
  const FeatureMatrix features = compute_features(
      reservoir, model.params, model.mask, dataset, RepresentationKind::kDprr);
  return predict_all(model.readout, features);
}

}  // namespace dfr
