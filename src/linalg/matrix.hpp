#pragma once
// Dense row-major double matrix / vector types used across dfrlib.
//
// Scope: the library needs exactly the operations that reservoir computing
// with a ridge-regression readout requires — GEMM/GEMV, transpose products,
// symmetric rank-k updates, and an SPD solver. A hand-rolled implementation
// keeps the build dependency-free and deterministic. Most kernels are plain
// loops. The ridge fit's two large products, the row kernel (gram_a_at) and
// the back-projection (back_project, and matmul_at_b through it), dispatch to
// the register-tiled SIMD entries of serve/simd_kernels.hpp. Those are exact:
// every entry has the bits of the plain loop, on every backend. They read
// their operand's rows in place through RowRefs.

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace dfr {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Two storage modes share the const read path:
///   - owning (default): the matrix holds its elements in a private vector.
///   - borrowed: `Matrix::borrow()` wraps caller-owned read-only storage
///     (e.g. a page inside an mmap'ed .dfrm file — serve/artifact_store.hpp)
///     without copying. A borrowed matrix is read-only: every mutating entry
///     point CHECKs against it, and the borrower must keep the underlying
///     storage alive for the matrix's lifetime (artifact files do this with a
///     refcounted mapping handle on the ModelArtifact). Copying a borrowed
///     matrix copies the view, not the elements.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Read-only view over caller-owned row-major storage (no copy). `data`
  /// must stay valid and unmodified for the lifetime of the returned matrix
  /// and of every copy made from it.
  [[nodiscard]] static Matrix borrow(const double* data, std::size_t rows,
                                     std::size_t cols) noexcept {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.view_ = data;
    return m;
  }

  /// True when this matrix is a read-only view over external storage.
  [[nodiscard]] bool borrowed() const noexcept { return view_ != nullptr; }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_ * cols_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    DFR_DCHECK(!borrowed() && r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    DFR_DCHECK(r < rows_ && c < cols_);
    return cdata()[r * cols_ + c];
  }

  /// Raw storage (row-major). The mutable overload CHECKs on borrowed views.
  [[nodiscard]] double* data() {
    DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
    return data_.data();
  }
  [[nodiscard]] const double* data() const noexcept { return cdata(); }

  /// View of row r. The mutable overload CHECKs on borrowed views.
  [[nodiscard]] std::span<double> row(std::size_t r) {
    DFR_DCHECK(r < rows_);
    DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    DFR_DCHECK(r < rows_);
    return {cdata() + r * cols_, cols_};
  }

  /// Copy of column c.
  [[nodiscard]] Vector col(std::size_t c) const;

  void fill(double v) {
    DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
    std::fill(data_.begin(), data_.end(), v);
  }

  /// Resize (content is discarded, zero-filled).
  void resize(std::size_t rows, std::size_t cols);

  /// Set row r from a span (length must equal cols()).
  void set_row(std::size_t r, std::span<const double> values);

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Max |a_ij|.
  [[nodiscard]] double max_abs() const noexcept;

  /// True if all entries are finite.
  [[nodiscard]] bool all_finite() const noexcept;

  /// Identity of size n.
  static Matrix identity(std::size_t n);

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Human-readable (small matrices; tests / debugging).
  [[nodiscard]] std::string to_string(int precision = 4) const;

  /// Element-wise equality; owning and borrowed matrices compare by content.
  friend bool operator==(const Matrix& a, const Matrix& b) noexcept {
    if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
    const double* pa = a.cdata();
    const double* pb = b.cdata();
    return pa == pb || std::equal(pa, pa + a.size(), pb);
  }

 private:
  /// Read path shared by both storage modes.
  [[nodiscard]] const double* cdata() const noexcept {
    return view_ ? view_ : data_.data();
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;          // owning mode storage (empty when borrowed)
  const double* view_ = nullptr;      // borrowed mode storage (null when owning)
};

// ---- free-function algebra ------------------------------------------------

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

/// Rows read in place, without a copy: row i is rows[i][0..cols), followed
/// by an implicit 1.0 when `bias` (a ridge readout's bias feature). The
/// ridge products below take their operand this way, so a fit over a subset
/// of a feature matrix's rows, bias column included, copies no feature.
struct RowRefs {
  std::vector<const double*> rows;
  std::size_t cols = 0;
  bool bias = false;

  /// Every row of `m`.
  explicit RowRefs(const Matrix& m, bool bias = false);

  /// Rows `index` of this view, in that order.
  [[nodiscard]] RowRefs subset(std::span<const std::size_t> index) const;

  [[nodiscard]] std::size_t size() const noexcept { return rows.size(); }
  /// Entries per row, the bias feature included.
  [[nodiscard]] std::size_t width() const noexcept {
    return cols + (bias ? 1 : 0);
  }
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B  (computed without forming A^T): entry (i, j) sums
/// a(r, i) * b(r, j) from 0.0 in ascending r, skipping the terms where
/// a(r, i) == 0. It is back_project(b, RowRefs(a)) transposed.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// The ridge back-projection W = A^T X for A: x.size() x m, in W's layout:
/// `w` becomes m x x.cols with entry (c, f) the sum of a(r, c) * x_r[f] from
/// 0.0 in ascending r, a term skipped where x_r[f] == 0. With x.bias, `b`
/// becomes the bias column (length m), the column sums of A. Runs the active
/// SIMD backend's back_project entry (serve/simd_kernels.hpp).
void back_project(const Matrix& a, const RowRefs& x, Matrix& w, Vector& b);

/// C = A * B^T  (computed without forming B^T).
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// y = A * x.
Vector matvec(const Matrix& a, std::span<const double> x);

/// y = A * x into a caller-owned buffer (no allocation; y must not alias x).
void matvec_into(const Matrix& a, std::span<const double> x, std::span<double> y);

/// y = A^T * x.
Vector matvec_t(const Matrix& a, std::span<const double> x);

/// G = A^T A + lambda I   (symmetric; only needs one pass over A's rows).
Matrix gram_at_a(const Matrix& a, double lambda = 0.0);
/// gram_at_a over rows read in place: x.width() x x.width().
Matrix gram_at_a(const RowRefs& x, double lambda = 0.0);

/// K = A A^T, the row kernel (symmetric). Entry (i, j) is bit-identical to
/// dot(a.row(i), a.row(j)): each entry is summed from 0.0 in column order
/// with a separate multiply and add. Runs the active SIMD backend's row_gram
/// entry (serve/simd_kernels.hpp), which holds a tile of entries in
/// registers; every backend gives the same bits.
Matrix gram_a_at(const Matrix& a);
/// gram_a_at over rows read in place: entry (i, j) is dot() of the two rows,
/// each with its bias feature 1.0 when x.bias.
Matrix gram_a_at(const RowRefs& x);

/// Rank-1 update: A += alpha * x y^T.
void add_outer(Matrix& a, double alpha, std::span<const double> x,
               std::span<const double> y);

// ---- vector helpers --------------------------------------------------------

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a) noexcept;
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void scale(std::span<double> x, double alpha) noexcept;
double max_abs(std::span<const double> a) noexcept;
bool all_finite(std::span<const double> a) noexcept;

/// Max |a_i - b_i| (spans must have equal length).
double max_abs_diff(std::span<const double> a, std::span<const double> b);

}  // namespace dfr
