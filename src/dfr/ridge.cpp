#include "dfr/ridge.hpp"

#include <cmath>
#include <limits>

#include "dfr/metrics.hpp"
#include "linalg/cholesky.hpp"
#include "util/check.hpp"

namespace dfr {
namespace {

/// Rows `rows` of `m`, in that order.
Matrix gather_rows(const Matrix& m, std::span<const std::size_t> rows) {
  Matrix out(rows.size(), m.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    DFR_CHECK(rows[i] < m.rows());
    out.set_row(i, m.row(rows[i]));
  }
  return out;
}

FeatureMatrix gather_rows(const FeatureMatrix& fm,
                          std::span<const std::size_t> rows) {
  FeatureMatrix out{gather_rows(fm.features, rows), {}};
  for (std::size_t i : rows) out.labels.push_back(fm.labels[i]);
  return out;
}

/// Split the augmented solution X ((p+1) x Ny) into (W: Ny x p, b: Ny).
OutputLayer layer_from_augmented(const Matrix& x_aug) {
  const std::size_t p = x_aug.rows() - 1;
  const std::size_t ny = x_aug.cols();
  Matrix w(ny, p);
  Vector b(ny, 0.0);
  for (std::size_t c = 0; c < ny; ++c) {
    for (std::size_t f = 0; f < p; ++f) w(c, f) = x_aug(f, c);
    b[c] = x_aug(p, c);
  }
  return OutputLayer(std::move(w), std::move(b));
}

/// The beta-free normal equations over one set of rows, read in place with
/// the bias feature: R_aug = [R, 1] is never materialized.
struct RidgeSystem {
  RowRefs r_aug;   // N rows of p features, plus the bias feature
  Matrix targets;  // N x Ny, one-hot
  Matrix lhs;      // dual: R_aug R_aug^T (N x N); primal: R_aug^T R_aug
  Matrix rhs;      // primal only: R_aug^T D

  [[nodiscard]] bool dual() const { return r_aug.size() < r_aug.width(); }

  /// Fill lhs (and rhs) from r_aug and targets.
  void build() {
    if (!dual()) {
      lhs = gram_at_a(r_aug);
      Matrix w;
      Vector b;
      back_project(targets, r_aug, w, b);  // (R_aug^T D)^T
      rhs = Matrix(r_aug.width(), targets.cols());
      for (std::size_t c = 0; c < targets.cols(); ++c) {
        for (std::size_t f = 0; f < r_aug.cols; ++f) rhs(f, c) = w(c, f);
        rhs(r_aug.cols, c) = b[c];
      }
      return;
    }
    lhs = gram_a_at(r_aug);  // every entry the dot() of its two rows
  }

  /// The system over rows `rows` of this one. A dual system over a dual one
  /// reads its kernel as a sub-block; any other is built afresh.
  [[nodiscard]] RidgeSystem sub(std::span<const std::size_t> rows) const {
    RidgeSystem out{r_aug.subset(rows), gather_rows(targets, rows), {}, {}};
    if (!out.dual() || !dual()) {
      out.build();
      return out;
    }
    out.lhs.resize(rows.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = 0; j < rows.size(); ++j) {
        out.lhs(i, j) = lhs(rows[i], rows[j]);
      }
    }
    return out;
  }

  /// The readout for one beta; empty when lhs + beta I is not positive
  /// definite.
  [[nodiscard]] std::optional<OutputLayer> solve(double beta) const {
    DFR_CHECK_MSG(beta > 0.0, "ridge needs beta > 0");
    Matrix shifted = lhs;
    for (std::size_t i = 0; i < shifted.rows(); ++i) shifted(i, i) += beta;
    const CholeskySolver solver(shifted);
    if (!solver.ok()) return std::nullopt;
    if (!dual()) return layer_from_augmented(solver.solve(rhs));
    // Dual: alpha = (K + beta I)^{-1} D, then [W, b] = alpha^T R_aug.
    Matrix w;
    Vector b;
    back_project(solver.solve(targets), r_aug, w, b);
    return OutputLayer(std::move(w), std::move(b));
  }

  [[nodiscard]] OutputLayer solve_or_throw(double beta) const {
    std::optional<OutputLayer> layer = solve(beta);
    DFR_CHECK_MSG(layer.has_value(), "ridge system is not positive definite");
    return std::move(*layer);
  }
};

/// The system over every row of `fm`. It reads fm's rows in place, so fm
/// must outlive it.
RidgeSystem system_over(const FeatureMatrix& fm, int num_classes) {
  DFR_CHECK_MSG(fm.features.rows() == fm.labels.size() && !fm.labels.empty(),
                "feature/label mismatch");
  RidgeSystem sys{RowRefs(fm.features, /*bias=*/true),
                  one_hot(fm.labels, num_classes), {}, {}};
  sys.build();
  return sys;
}

RidgeSweep sweep_system(const RidgeSystem& fit, const FeatureMatrix& selection,
                        const std::vector<double>& betas) {
  DFR_CHECK(!betas.empty());
  RidgeSweep sweep;
  double best_loss = std::numeric_limits<double>::infinity();
  for (double beta : betas) {
    RidgeCandidate candidate{beta, 0.0, fit.solve_or_throw(beta)};
    candidate.selection_loss = evaluate_loss(candidate.layer, selection);
    if (candidate.selection_loss < best_loss) {
      best_loss = candidate.selection_loss;
      sweep.best_index = sweep.candidates.size();
    }
    sweep.candidates.push_back(std::move(candidate));
  }
  return sweep;
}

}  // namespace

const std::vector<double>& paper_beta_grid() {
  static const std::vector<double> betas = {1e-6, 1e-4, 1e-2, 1.0};
  return betas;
}

OutputLayer fit_ridge(const FeatureMatrix& train, int num_classes, double beta) {
  return system_over(train, num_classes).solve_or_throw(beta);
}

RidgeSweep sweep_ridge(const FeatureMatrix& train, const FeatureMatrix& selection,
                       int num_classes, const std::vector<double>& betas) {
  return sweep_system(system_over(train, num_classes), selection, betas);
}

RidgeSelection select_ridge(const FeatureMatrix& features,
                            std::span<const std::size_t> fit_rows,
                            std::span<const std::size_t> validation_rows,
                            int num_classes, const std::vector<double>& betas) {
  DFR_CHECK_MSG(!fit_rows.empty() && !validation_rows.empty(),
                "select_ridge needs fit and validation rows");
  const RidgeSystem all = system_over(features, num_classes);
  RidgeSelection out{sweep_system(all.sub(fit_rows),
                                  gather_rows(features, validation_rows), betas),
                     std::nullopt};
  out.readout = all.solve(out.sweep.best().beta);
  return out;
}

double evaluate_loss(const OutputLayer& layer, const FeatureMatrix& data) {
  DFR_CHECK(!data.labels.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    sum += layer.loss(data.features.row(i), data.labels[i]);
  }
  return sum / static_cast<double>(data.labels.size());
}

double evaluate_accuracy(const OutputLayer& layer, const FeatureMatrix& data) {
  return accuracy(predict_all(layer, data), data.labels);
}

std::vector<int> predict_all(const OutputLayer& layer, const FeatureMatrix& data) {
  std::vector<int> out(data.labels.size());
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    out[i] = layer.predict(data.features.row(i));
  }
  return out;
}

}  // namespace dfr
