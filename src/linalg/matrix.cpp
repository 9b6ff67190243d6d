#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "serve/simd_kernels.hpp"

namespace dfr {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    DFR_CHECK_MSG(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Vector Matrix::col(std::size_t c) const {
  DFR_CHECK(c < cols_);
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  DFR_CHECK(r < rows_ && values.size() == cols_);
  DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
  std::copy(values.begin(), values.end(), data_.begin() + r * cols_);
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::frobenius_norm() const noexcept {
  double sum = 0.0;
  const double* p = data();
  for (std::size_t i = 0; i < size(); ++i) sum += p[i] * p[i];
  return std::sqrt(sum);
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  const double* p = data();
  for (std::size_t i = 0; i < size(); ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

bool Matrix::all_finite() const noexcept {
  const double* p = data();
  for (std::size_t i = 0; i < size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DFR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
  const double* p = other.data();
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += p[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DFR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
  const double* p = other.data();
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= p[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  DFR_CHECK_MSG(!borrowed(), "mutating a borrowed Matrix view");
  for (double& v : data_) v *= scalar;
  return *this;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << '[';
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    os << "]\n";
  }
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  DFR_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols());
  const std::size_t n = a.rows(), k_dim = a.cols(), m = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* ci = c.data() + i * m;
    const double* ai = a.data() + i * k_dim;
    for (std::size_t k = 0; k < k_dim; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b.data() + k * m;
      for (std::size_t j = 0; j < m; ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

RowRefs::RowRefs(const Matrix& m, bool bias)
    : rows(m.rows()), cols(m.cols()), bias(bias) {
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = m.data() + i * cols;
}

RowRefs RowRefs::subset(std::span<const std::size_t> index) const {
  RowRefs out = *this;
  out.rows.resize(index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    DFR_CHECK(index[i] < rows.size());
    out.rows[i] = rows[index[i]];
  }
  return out;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  DFR_CHECK_MSG(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  Matrix w;
  Vector unused;
  back_project(b, RowRefs(a), w, unused);
  return w.transposed();
}

void back_project(const Matrix& a, const RowRefs& x, Matrix& w, Vector& b) {
  DFR_CHECK_MSG(a.rows() == x.size(), "back_project shape mismatch");
  w.resize(a.cols(), x.cols);
  b.assign(x.bias ? a.cols() : 0, 0.0);
  simd::active_kernels().back_project(x.rows.data(), x.size(), x.cols,
                                      a.data(), a.cols(), w.data(),
                                      x.bias ? b.data() : nullptr);
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  DFR_CHECK_MSG(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      c(i, j) = dot(a.row(i), b.row(j));
    }
  }
  return c;
}

Vector matvec(const Matrix& a, std::span<const double> x) {
  Vector y(a.rows(), 0.0);
  matvec_into(a, x, y);
  return y;
}

void matvec_into(const Matrix& a, std::span<const double> x, std::span<double> y) {
  DFR_CHECK_MSG(a.cols() == x.size(), "matvec shape mismatch");
  DFR_CHECK_MSG(a.rows() == y.size(), "matvec output length mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
}

Vector matvec_t(const Matrix& a, std::span<const double> x) {
  DFR_CHECK_MSG(a.rows() == x.size(), "matvec_t shape mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* ai = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * ai[j];
  }
  return y;
}

Matrix gram_at_a(const Matrix& a, double lambda) {
  return gram_at_a(RowRefs(a), lambda);
}

Matrix gram_at_a(const RowRefs& x, double lambda) {
  const std::size_t p = x.cols, width = x.width();
  Matrix g(width, width);
  for (const double* xr : x.rows) {
    for (std::size_t i = 0; i < p; ++i) {
      const double xri = xr[i];
      if (xri == 0.0) continue;
      double* gi = g.data() + i * width;
      // Upper triangle only, mirrored afterwards; the bias feature is last.
      for (std::size_t j = i; j < p; ++j) gi[j] += xri * xr[j];
      if (x.bias) gi[p] += xri;
    }
    if (x.bias) g(p, p) += 1.0;
  }
  for (std::size_t i = 0; i < width; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
    g(i, i) += lambda;
  }
  return g;
}

Matrix gram_a_at(const Matrix& a) { return gram_a_at(RowRefs(a)); }

Matrix gram_a_at(const RowRefs& x) {
  Matrix k(x.size(), x.size());
  simd::active_kernels().row_gram(x.rows.data(), x.size(), x.cols, x.bias,
                                  k.data());
  return k;
}

void add_outer(Matrix& a, double alpha, std::span<const double> x,
               std::span<const double> y) {
  DFR_CHECK(a.rows() == x.size() && a.cols() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double axi = alpha * x[i];
    if (axi == 0.0) continue;
    double* ai = a.data() + i * a.cols();
    for (std::size_t j = 0; j < y.size(); ++j) ai[j] += axi * y[j];
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  DFR_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(std::span<const double> a) noexcept {
  double sum = 0.0;
  for (double v : a) sum += v * v;
  return std::sqrt(sum);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  DFR_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> x, double alpha) noexcept {
  for (double& v : x) v *= alpha;
}

double max_abs(std::span<const double> a) noexcept {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

bool all_finite(std::span<const double> a) noexcept {
  for (double v : a) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  DFR_CHECK(a.size() == b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace dfr
