#include "fixedpoint/quantized_dfr.hpp"

#include <algorithm>
#include <cmath>

#include "dfr/dprr.hpp"
#include "dfr/metrics.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"

namespace dfr {
namespace {

/// Smallest power of two s with max_abs / s <= limit (s >= 1 only scales
/// down; values already in range keep s = 1).
double pow2_prescaler(double max_abs, double limit) {
  if (!(max_abs > limit) || limit <= 0.0) return 1.0;
  return std::exp2(std::ceil(std::log2(max_abs / limit)));
}

}  // namespace

QuantizedDfr::QuantizedDfr(const LoadedModel& model,
                           QuantizedInferenceConfig config)
    : model_(model), quant_readout_(model.readout), config_(config) {
  requantize_readout();
}

void QuantizedDfr::requantize_readout() {
  quant_readout_ = model_.readout;
  Matrix& w = quant_readout_.mutable_weights();
  Vector& b = quant_readout_.mutable_bias();
  // Weights divided by the weight prescaler; bias additionally by the total
  // feature scaling so logits stay proportional to the float logits:
  //   logits' = (W/s_w) (r/s_f) + b/(s_w s_f) = logits / (s_w s_f).
  const double s_f = scales_.state * scales_.state * scales_.feature;
  w *= 1.0 / scales_.weight;
  for (double& v : b) v /= scales_.weight * s_f;
  config_.weight_format.quantize(w);
  config_.weight_format.quantize(b);
}

void QuantizedDfr::calibrate(const Dataset& data, std::size_t max_samples) {
  DFR_CHECK(!data.empty());
  const std::size_t count = std::min(max_samples, data.size());
  const std::size_t nx = model_.mask.nodes();
  const ModularReservoir reservoir(nx, model_.nonlinearity);

  // Float-pipeline dynamic ranges.
  double max_state = 0.0;
  double max_feature = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const Matrix j = model_.mask.apply_series(data[i].series);
    max_state = std::max(max_state, j.max_abs());
    const Matrix states = reservoir.run(j, model_.params);
    max_state = std::max(max_state, states.max_abs());
    Vector r = dprr_from_states(states);
    scale(r, dprr_time_scale(data[i].series.rows()));
    max_feature = std::max(max_feature, max_abs(r));
  }

  scales_.state = pow2_prescaler(max_state, config_.state_format.max_value());
  // Features of the scaled pipeline are r / state^2; the residual prescaler
  // covers what remains outside the feature format.
  const double scaled_feature_range =
      max_feature / (scales_.state * scales_.state);
  scales_.feature =
      pow2_prescaler(scaled_feature_range, config_.feature_format.max_value());
  scales_.weight = pow2_prescaler(model_.readout.weights().max_abs(),
                                  config_.weight_format.max_value());
  requantize_readout();
}

Vector QuantizedDfr::features(const Matrix& series) const {
  SimdQuantizedInferenceEngine engine = make_simd_engine(*this);
  const std::span<const double> r = engine.features(series);
  return Vector(r.begin(), r.end());
}

int QuantizedDfr::classify(const Matrix& series) const {
  SimdQuantizedInferenceEngine engine = make_simd_engine(*this);
  return engine.classify(series);
}

double quantized_accuracy(const QuantizedDfr& dfr, const Dataset& dataset,
                          unsigned threads) {
  DFR_CHECK(!dataset.empty());
  const std::vector<int> predicted = classify_batch(dfr, dataset, threads);
  std::vector<int> actual(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) actual[i] = dataset[i].label;
  return accuracy(predicted, actual);
}

}  // namespace dfr
