#pragma once
// Softmax / cross-entropy output layer (paper Eqs. 12, 15-17).
//
// y = softmax(W r + b); L = -sum_c d_c log y_c with one-hot target d.
// dL/dlogits = y - d, dL/dW = (y-d) r^T, dL/db = y - d, dL/dr = W^T (y-d).
// The layer is trained with per-sample SGD during the backprop phase and then
// refit by ridge regression (ridge.hpp) once (A, B) have converged.

#include "linalg/matrix.hpp"

namespace dfr {

/// Numerically stable softmax (log-sum-exp shifted).
Vector softmax(std::span<const double> logits);

/// -log(probs[label]), with probs a softmax output. Clamps at 1e-300.
double cross_entropy(std::span<const double> probs, int label);

class OutputLayer {
 public:
  /// Zero-initialized, as in the paper's protocol.
  OutputLayer(int num_classes, std::size_t feature_dim);

  /// Construct from explicit weights (ridge result / deserialization).
  OutputLayer(Matrix weights, Vector bias);

  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(w_.rows());
  }
  [[nodiscard]] std::size_t feature_dim() const noexcept { return w_.cols(); }
  [[nodiscard]] const Matrix& weights() const noexcept { return w_; }
  [[nodiscard]] const Vector& bias() const noexcept { return b_; }
  [[nodiscard]] Matrix& mutable_weights() noexcept { return w_; }
  [[nodiscard]] Vector& mutable_bias() noexcept { return b_; }

  [[nodiscard]] Vector logits(std::span<const double> features) const;
  /// Logits into a caller-owned buffer (length num_classes(); no allocation).
  /// Every class row is summed in one pass over the features, four rows at
  /// a time; each logit is still dot(W row, features), then + b, bit for bit.
  void logits_into(std::span<const double> features, std::span<double> out) const;
  [[nodiscard]] Vector probabilities(std::span<const double> features) const;
  [[nodiscard]] int predict(std::span<const double> features) const;
  [[nodiscard]] double loss(std::span<const double> features, int label) const;

  /// Forward + backward for one sample.
  struct Backward {
    double loss = 0.0;
    double features_sq = 0.0;  // dot(features, features), from the logits pass
    Vector probs;      // y
    Vector dlogits;    // y - d
    Vector dfeatures;  // W^T (y - d) — propagated into the DPRR layer
  };
  [[nodiscard]] Backward backward(std::span<const double> features, int label) const;

  /// SGD update from a Backward record: W -= lr (y-d) r^T, b -= lr (y-d).
  void apply_gradient(const Backward& grad, std::span<const double> features,
                      double lr);

 private:
  Matrix w_;  // Ny x Nr
  Vector b_;  // Ny
};

}  // namespace dfr
