#pragma once
// Ridge-regression readout (the paper's final output-layer training step).
//
// Fits W, b minimizing ||R_aug W_aug^T - D||_F^2 + beta ||W_aug||_F^2 with
// R_aug = [R, 1] (bias column) and one-hot targets D. Two equivalent solution
// paths, chosen automatically by shape:
//
//   primal:  W_aug^T = (R^T R + beta I)^{-1} R^T D        — p x p system
//   dual:    W_aug^T = R^T (R R^T + beta I)^{-1} D        — N x N system
//
// With Nx = 30 the DPRR feature dimension is 931; datasets with fewer than
// 931 samples (most of the paper's twelve) solve dramatically faster in the
// dual. Both paths are Cholesky-based and agree to solver precision
// (tested in tests/test_ridge.cpp).
//
// The system is built once per set of rows, without beta: the dual kernel
// R_aug R_aug^T, or the primal Gram R_aug^T R_aug plus R_aug^T D. Neither
// R_aug nor a row subset is ever copied: the system reads the feature
// matrix's rows in place through a RowRefs (linalg/matrix.hpp), and the
// bias column is an implicit trailing 1.0. The dual kernel and the dual
// back-projection alpha^T R_aug run the exact register-tiled row_gram and
// back_project entries of serve/simd_kernels.hpp, which give every backend
// the plain loops' bits. Each beta only adds to the diagonal of a copy
// before its Cholesky solve, so a sweep builds one system rather than one
// per beta. select_ridge goes further in the dual: the fit rows' kernel is a
// sub-block of the all-rows kernel, so the whole selection builds one. Every
// result is bit-identical to building each (rows, beta) system from scratch:
// a kernel entry is the same dot() over the same two rows in the same order
// (IEEE products commute exactly), and a Gram diagonal is a sum of squares
// from +0.0, so adding 0.0 and then beta rounds like adding beta.
//
// Beta selection follows the paper's protocol: fit for each beta in
// {1e-6, 1e-4, 1e-2, 1} and keep the one with the smallest cross-entropy loss
// L. We measure L on a held-out validation split: on the rows the readout was
// fit to, the weakest regularization fits best and would nearly always win.

#include <optional>
#include <span>
#include <vector>

#include "dfr/features.hpp"
#include "dfr/output.hpp"

namespace dfr {

/// The paper's candidate grid for the regularization parameter.
const std::vector<double>& paper_beta_grid();

/// Fit the output layer for a single beta.
OutputLayer fit_ridge(const FeatureMatrix& train, int num_classes, double beta);

/// Evaluation record for one candidate beta.
struct RidgeCandidate {
  double beta = 0.0;
  double selection_loss = 0.0;  // mean CE on the selection split
  OutputLayer layer;
};

/// Fit every beta on `train` and score on `selection`; returns candidates in
/// grid order plus the index of the winner (smallest selection loss).
struct RidgeSweep {
  std::vector<RidgeCandidate> candidates;
  std::size_t best_index = 0;

  [[nodiscard]] const RidgeCandidate& best() const { return candidates[best_index]; }
};
RidgeSweep sweep_ridge(const FeatureMatrix& train, const FeatureMatrix& selection,
                       int num_classes,
                       const std::vector<double>& betas = paper_beta_grid());

/// The paper's beta protocol on one feature matrix: sweep `betas` fitting on
/// `fit_rows` and scoring on `validation_rows` (indices into `features`), then
/// refit the winner on every row. Bit-identical to sweep_ridge on the gathered
/// rows followed by fit_ridge on all rows. Throws CheckError when a sweep
/// system is not positive definite, as sweep_ridge does.
struct RidgeSelection {
  RidgeSweep sweep;
  /// The winning beta fit on every row; empty when that system is not
  /// positive definite.
  std::optional<OutputLayer> readout;
};
RidgeSelection select_ridge(const FeatureMatrix& features,
                            std::span<const std::size_t> fit_rows,
                            std::span<const std::size_t> validation_rows,
                            int num_classes,
                            const std::vector<double>& betas = paper_beta_grid());

/// Mean cross-entropy of `layer` on a feature matrix.
double evaluate_loss(const OutputLayer& layer, const FeatureMatrix& data);

/// Classification accuracy of `layer` on a feature matrix.
double evaluate_accuracy(const OutputLayer& layer, const FeatureMatrix& data);

/// Predicted labels for every row.
std::vector<int> predict_all(const OutputLayer& layer, const FeatureMatrix& data);

}  // namespace dfr
