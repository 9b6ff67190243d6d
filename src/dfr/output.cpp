#include "dfr/output.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dfr {

Vector softmax(std::span<const double> logits) {
  DFR_CHECK(!logits.empty());
  const double zmax = *std::max_element(logits.begin(), logits.end());
  Vector probs(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - zmax);
    sum += probs[i];
  }
  for (double& p : probs) p /= sum;
  return probs;
}

double cross_entropy(std::span<const double> probs, int label) {
  DFR_CHECK(label >= 0 && static_cast<std::size_t>(label) < probs.size());
  return -std::log(std::max(probs[static_cast<std::size_t>(label)], 1e-300));
}

namespace {

/// out[a] = dot(w row a, f) for the kRows rows of W from `w` (row stride n),
/// all in one pass over f: each row summed from 0.0 in column order with a
/// separate multiply and add, so each has dot()'s bits. With kNorm it also
/// returns dot(f, f), summed in the same pass.
template <std::size_t kRows, bool kNorm>
double dot_rows(const double* w, std::size_t n, const double* f, double* out) {
  double sums[kRows] = {};
  double norm = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    const double x = f[c];
    for (std::size_t a = 0; a < kRows; ++a) sums[a] += w[a * n + c] * x;
    if constexpr (kNorm) norm += x * x;
  }
  for (std::size_t a = 0; a < kRows; ++a) out[a] = sums[a];
  return norm;
}

/// Up to four rows of W in one pass (dot_rows).
template <bool kNorm>
double dot_row_block(const double* w, std::size_t rows, std::size_t n,
                     const double* f, double* out) {
  switch (rows) {
    case 1: return dot_rows<1, kNorm>(w, n, f, out);
    case 2: return dot_rows<2, kNorm>(w, n, f, out);
    case 3: return dot_rows<3, kNorm>(w, n, f, out);
    default: return dot_rows<4, kNorm>(w, n, f, out);
  }
}

/// z = W f + b, four class rows per pass over f: each row is dot()'s sum,
/// then + b. Returns dot(f, f), summed in the first pass, when `with_norm`.
double logits_pass(const Matrix& w, const Vector& b,
                   std::span<const double> f, std::span<double> z,
                   bool with_norm) {
  DFR_CHECK_MSG(w.cols() == f.size(), "logits: feature length mismatch");
  DFR_CHECK_MSG(w.rows() == z.size(), "logits: output length mismatch");
  const std::size_t ny = w.rows(), n = w.cols();
  double norm = 0.0;
  for (std::size_t c = 0; c < ny; c += 4) {
    const double* wc = w.data() + c * n;
    if (with_norm && c == 0) {
      norm = dot_row_block<true>(wc, ny - c, n, f.data(), z.data() + c);
    } else {
      dot_row_block<false>(wc, ny - c, n, f.data(), z.data() + c);
    }
  }
  for (std::size_t c = 0; c < ny; ++c) z[c] += b[c];
  return norm;
}

}  // namespace

OutputLayer::OutputLayer(int num_classes, std::size_t feature_dim)
    : w_(static_cast<std::size_t>(num_classes), feature_dim),
      b_(static_cast<std::size_t>(num_classes), 0.0) {
  DFR_CHECK(num_classes >= 2 && feature_dim > 0);
}

OutputLayer::OutputLayer(Matrix weights, Vector bias)
    : w_(std::move(weights)), b_(std::move(bias)) {
  DFR_CHECK(w_.rows() == b_.size() && w_.rows() >= 2);
}

Vector OutputLayer::logits(std::span<const double> features) const {
  Vector z(w_.rows(), 0.0);
  logits_into(features, z);
  return z;
}

void OutputLayer::logits_into(std::span<const double> features,
                              std::span<double> out) const {
  logits_pass(w_, b_, features, out, false);
}

Vector OutputLayer::probabilities(std::span<const double> features) const {
  Vector z = logits(features);
  return softmax(z);
}

int OutputLayer::predict(std::span<const double> features) const {
  const Vector z = logits(features);
  return static_cast<int>(
      std::max_element(z.begin(), z.end()) - z.begin());
}

double OutputLayer::loss(std::span<const double> features, int label) const {
  return cross_entropy(probabilities(features), label);
}

OutputLayer::Backward OutputLayer::backward(std::span<const double> features,
                                            int label) const {
  Backward out;
  Vector z(w_.rows());
  out.features_sq = logits_pass(w_, b_, features, z, true);
  out.probs = softmax(z);
  out.loss = cross_entropy(out.probs, label);
  out.dlogits = out.probs;
  out.dlogits[static_cast<std::size_t>(label)] -= 1.0;
  out.dfeatures = matvec_t(w_, out.dlogits);
  return out;
}

void OutputLayer::apply_gradient(const Backward& grad,
                                 std::span<const double> features, double lr) {
  DFR_CHECK(grad.dlogits.size() == w_.rows() && features.size() == w_.cols());
  add_outer(w_, -lr, grad.dlogits, features);
  axpy(-lr, grad.dlogits, b_);
}

}  // namespace dfr
