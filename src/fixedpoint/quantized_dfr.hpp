#pragma once
// Quantized DFR inference: the trained floating-point model executed with
// fixed-point state, feature, and readout arithmetic. Quantization points
// match a realistic datapath: the masked input, every node state, the DPRR
// accumulator, and the readout weights/biases are each held in the chosen
// format.
//
// Real fixed-point designs pick a per-tensor binary scaling (the "binary
// point position") from calibration data; calibrate() does exactly that —
// it measures the dynamic range of states and features on a few samples and
// of the readout weights directly, then selects power-of-two prescalers so
// each tensor fills its format. Scaling is exact for the identity
// nonlinearity (the paper's evaluation setting) because the node update is
// then homogeneous; for saturating nonlinearities it is the usual
// engineering approximation. All scales cancel in the argmax, so reported
// accuracy reflects only quantization error, not scaling.

#include "dfr/model_io.hpp"
#include "fixedpoint/fixed.hpp"

namespace dfr {

struct QuantizedInferenceConfig {
  FixedPointFormat state_format{4, 11};    // node states & masked inputs
  FixedPointFormat feature_format{8, 15};  // DPRR accumulator (wider: sums)
  FixedPointFormat weight_format{4, 11};   // readout W, b
};

/// Power-of-two prescalers chosen by calibration (1.0 = no scaling).
struct QuantizationScales {
  double state = 1.0;    // states and masked inputs divided by this
  double feature = 1.0;  // residual feature scaling beyond state^2
  double weight = 1.0;   // readout weights divided by this
};

class QuantizedDfr {
 public:
  /// Wraps a trained model. Call calibrate() before classify() unless the
  /// model's dynamic ranges already fit the formats.
  QuantizedDfr(const LoadedModel& model, QuantizedInferenceConfig config);

  /// Choose power-of-two prescalers from up to `max_samples` of `data` (state
  /// and feature ranges) and from the readout weights. Re-quantizes the
  /// readout under the new scale.
  void calibrate(const Dataset& data, std::size_t max_samples = 8);

  /// Classify one series with the quantized datapath. Convenience wrapper
  /// that builds a fresh SIMD engine per call on simd::active_backend();
  /// sustained serving should hold an engine (serve/engine.hpp) and reuse
  /// its scratch. By the quantized SIMD contract the result is
  /// bit-identical to the scalar make_engine(*this) on every backend.
  [[nodiscard]] int classify(const Matrix& series) const;

  /// Quantized, prescaled DPRR features for one series (for tests).
  [[nodiscard]] Vector features(const Matrix& series) const;

  [[nodiscard]] const QuantizedInferenceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const QuantizationScales& scales() const noexcept {
    return scales_;
  }
  /// The wrapped float model (mask, params, nonlinearity).
  [[nodiscard]] const LoadedModel& model() const noexcept { return model_; }
  /// The prescaled, quantized readout used by the fixed-point datapath.
  [[nodiscard]] const OutputLayer& quantized_readout() const noexcept {
    return quant_readout_;
  }

 private:
  void requantize_readout();

  LoadedModel model_;          // original float model (kept pristine)
  OutputLayer quant_readout_;  // scaled + quantized readout
  QuantizedInferenceConfig config_;
  QuantizationScales scales_;
};

/// Accuracy of the quantized datapath over a dataset. `threads` caps the
/// pool slots used for the batch (0 = all cores, 1 = serial); results are
/// bit-identical for any value — and for any SIMD backend (the quantized
/// SIMD contract).
double quantized_accuracy(const QuantizedDfr& dfr, const Dataset& dataset,
                          unsigned threads = 1);

}  // namespace dfr
