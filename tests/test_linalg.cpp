// Unit tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/stats.hpp"
#include "serve/simd_kernels.hpp"
#include "util/rng.hpp"

namespace dfr {
namespace {

/// Runs check() once per SIMD backend this host and build can run, each
/// forced active in turn; the active backend is restored afterwards.
template <class Check>
void on_every_backend(const Check& check) {
  struct Restore {
    simd::Backend saved = simd::active_backend();
    ~Restore() { simd::force_backend(saved); }
  } restore;
  for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                          simd::Backend::kNeon, simd::Backend::kAvx512}) {
    if (!simd::backend_available(b)) continue;
    simd::force_backend(b);
    SCOPED_TRACE(simd::backend_name(b));
    check();
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Matrix, ConstructsZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, InitializerListAndEquality) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  Matrix same{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_TRUE(m == same);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), CheckError);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix mt = m.transposed();
  EXPECT_EQ(mt.rows(), 3u);
  EXPECT_EQ(mt(0, 1), 4.0);
  EXPECT_TRUE(mt.transposed() == m);
}

TEST(Matrix, MatmulSmallKnown) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(Matrix, TransposeProductsAgreeWithExplicitTranspose) {
  Rng rng(7);
  Matrix a(5, 3), b(5, 4);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
    for (std::size_t c = 0; c < 4; ++c) b(r, c) = rng.normal();
  }
  const Matrix expected = matmul(a.transposed(), b);
  const Matrix actual = matmul_at_b(a, b);
  EXPECT_LT((expected - actual).max_abs(), 1e-12);

  Matrix c(4, 3);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t col = 0; col < 3; ++col) c(r, col) = rng.normal();
  }
  const Matrix expected2 = matmul(a, c.transposed());
  const Matrix actual2 = matmul_a_bt(a, c);
  EXPECT_LT((expected2 - actual2).max_abs(), 1e-12);
}

TEST(Matrix, GramMatchesExplicitProduct) {
  Rng rng(11);
  Matrix a(6, 4);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
  }
  const double lambda = 0.5;
  Matrix expected = matmul_at_b(a, a);
  for (std::size_t i = 0; i < 4; ++i) expected(i, i) += lambda;
  const Matrix actual = gram_at_a(a, lambda);
  EXPECT_LT((expected - actual).max_abs(), 1e-12);
}

TEST(Matrix, MatvecAndTransposedMatvec) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Vector x = {1.0, 0.5, -1.0};
  Vector y = matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 1.0 - 3.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0 + 2.5 - 6.0);

  Vector z = {2.0, -1.0};
  Vector w = matvec_t(a, z);
  EXPECT_DOUBLE_EQ(w[0], 2.0 - 4.0);
  EXPECT_DOUBLE_EQ(w[1], 4.0 - 5.0);
  EXPECT_DOUBLE_EQ(w[2], 6.0 - 6.0);
}

TEST(Matrix, AddOuterRankOneUpdate) {
  Matrix a(2, 3);
  Vector x = {1.0, 2.0};
  Vector y = {3.0, 4.0, 5.0};
  add_outer(a, 2.0, x, y);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 20.0);
}

TEST(Matrix, AllFiniteDetectsNan) {
  Matrix m(2, 2);
  EXPECT_TRUE(m.all_finite());
  m(1, 1) = std::nan("");
  EXPECT_FALSE(m.all_finite());
}

TEST(Cholesky, FactorizesKnownSpdMatrix) {
  Matrix a{{4, 2}, {2, 3}};
  auto l = cholesky_factor(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_DOUBLE_EQ((*l)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((*l)(1, 0), 1.0);
  EXPECT_NEAR((*l)(1, 1), std::sqrt(2.0), 1e-15);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_factor(a).has_value());
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  Rng rng(3);
  const std::size_t n = 20;
  Matrix base(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) base(r, c) = rng.normal();
  }
  Matrix spd = gram_at_a(base, 1.0);  // base^T base + I, strictly SPD
  Vector x_true(n);
  for (double& v : x_true) v = rng.normal();
  const Vector b = matvec(spd, x_true);
  const Vector x = cholesky_solve(spd, b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-9);
}

TEST(Cholesky, SolverReusesFactorizationForMatrixRhs) {
  Matrix a{{5, 1, 0}, {1, 4, 1}, {0, 1, 3}};
  Matrix b{{1, 0}, {0, 1}, {2, -1}};
  CholeskySolver solver(a);
  ASSERT_TRUE(solver.ok());
  const Matrix x = solver.solve(b);
  const Matrix residual = matmul(a, x) - b;
  EXPECT_LT(residual.max_abs(), 1e-12);
}

TEST(Cholesky, LogDetMatchesKnownValue) {
  Matrix a{{4, 0}, {0, 9}};
  CholeskySolver solver(a);
  ASSERT_TRUE(solver.ok());
  EXPECT_NEAR(solver.log_det(), std::log(36.0), 1e-12);
}

TEST(Stats, MeanVarianceStd) {
  const Vector v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(variance(v), 5.0 / 3.0, 1e-15);
  EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-15);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const Vector a = {1.0, 2.0, 3.0};
  const Vector b = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const Vector c = {3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, NrmseZeroForPerfectPrediction) {
  const Vector t = {1.0, 2.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(nrmse(t, t), 0.0);
}

TEST(Stats, PercentileKnownValues) {
  const Vector v = {15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 35.0);
  // Linear interpolation: rank = 0.25 * 4 = 1 exactly.
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 20.0);
  // rank = 0.40 * 4 = 1.6 -> 20 + 0.6 * (35 - 20) = 29.
  EXPECT_DOUBLE_EQ(percentile(v, 40.0), 29.0);
}

TEST(Stats, PercentileIsOrderInvariant) {
  const Vector sorted = {1.0, 2.0, 3.0, 4.0};
  const Vector shuffled = {3.0, 1.0, 4.0, 2.0};
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile(sorted, p), percentile(shuffled, p)) << p;
  }
}

TEST(Stats, PercentileSingleElementAndErrors) {
  const Vector one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 99.0), 7.0);
  EXPECT_THROW(percentile({}, 50.0), CheckError);
  EXPECT_THROW(percentile(one, -1.0), CheckError);
  EXPECT_THROW(percentile(one, 100.5), CheckError);
}

TEST(Stats, SummarizeMatchesDirectComputation) {
  Rng rng(9);
  Vector v(500);
  for (double& x : v) x = rng.uniform(0.0, 100.0);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, v.size());
  EXPECT_DOUBLE_EQ(s.mean, mean(v));
  EXPECT_DOUBLE_EQ(s.min, min_value(v));
  EXPECT_DOUBLE_EQ(s.max, max_value(v));
  EXPECT_DOUBLE_EQ(s.p50, percentile(v, 50.0));
  EXPECT_DOUBLE_EQ(s.p90, percentile(v, 90.0));
  EXPECT_DOUBLE_EQ(s.p99, percentile(v, 99.0));
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_THROW(summarize({}), CheckError);
}

TEST(Matrix, MatvecIntoMatchesMatvec) {
  Rng rng(13);
  Matrix a(4, 6);
  Vector x(6);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  }
  for (double& v : x) v = rng.normal();
  const Vector expected = matvec(a, x);
  Vector y(4, -1.0);
  matvec_into(a, x, y);
  EXPECT_EQ(y, expected);  // bitwise: same kernel
  Vector wrong_len(3);
  EXPECT_THROW(matvec_into(a, x, wrong_len), CheckError);
}

// The ridge dual kernel: every entry, in both triangles, has the bits of the
// dot() of its two rows on every backend, for row counts that leave every
// band and tile remainder of the register-tiled kernel and column counts
// that leave every panel remainder. The same holds read in place by index
// with the bias feature, whose 1.0 * 1.0 is dot()'s last term.
TEST(Matrix, GramAAtEntriesAreBitIdenticalToDot) {
  std::vector<std::size_t> row_counts(17);
  std::iota(row_counts.begin(), row_counts.end(), std::size_t{1});
  std::vector<std::size_t> col_counts = row_counts;
  row_counts.insert(row_counts.end(), {33, 80, 100});
  col_counts.insert(col_counts.end(), {931, 932});
  on_every_backend([&] {
    Rng rng(17);
    for (std::size_t n : row_counts) {
      for (std::size_t p : col_counts) {
        Matrix a(n, p);
        for (std::size_t i = 0; i < a.rows(); ++i) {
          for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
        }
        const Matrix k = gram_a_at(a);
        ASSERT_EQ(k.rows(), n);
        ASSERT_EQ(k.cols(), n);
        std::vector<std::size_t> reversed(n);
        std::iota(reversed.rbegin(), reversed.rend(), std::size_t{0});
        const Matrix kb =
            gram_a_at(RowRefs(a, /*bias=*/true).subset(reversed));
        SCOPED_TRACE("p=" + std::to_string(p));
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double got = k(i, j);
            const double expected = dot(a.row(i), a.row(j));
            ASSERT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
                << "n=" << n << " entry (" << i << ", " << j << ")";
            const double with_bias =
                dot(a.row(reversed[i]), a.row(reversed[j])) + 1.0;
            ASSERT_TRUE(same_bits(kb(i, j), with_bias))
                << "bias n=" << n << " entry (" << i << ", " << j << ")";
          }
        }
      }
    }
  });
}

// The ridge back-projection W = A^T X against the plain loop, memcmp per
// entry on every backend, for shapes that leave every class, vector and
// scalar remainder. Rows are read in place in reverse order, with the bias
// column. Exact zeros of X (both signs) meet +inf, -inf and NaN
// coefficients, one per class: W stays finite where each is skipped, and
// 0 * inf would turn it NaN. matmul_at_b is the same product transposed.
TEST(Matrix, BackProjectionIsBitIdenticalToPlainLoop) {
  const double specials[] = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  std::vector<std::size_t> feature_counts(17);
  std::iota(feature_counts.begin(), feature_counts.end(), std::size_t{1});
  feature_counts.insert(feature_counts.end(), {31, 33, 63, 65, 931, 932});
  on_every_backend([&] {
    Rng rng(23);
    for (std::size_t n : {1, 3, 8, 100}) {
      for (std::size_t p : feature_counts) {
        for (std::size_t ny : {1, 2, 3, 4, 5}) {
          Matrix x(n, p), a(n, ny);
          for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t f = 0; f < p; ++f) {
              const double u = rng.uniform();
              x(r, f) = u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.normal();
            }
            for (std::size_t c = 0; c < ny; ++c) a(r, c) = rng.normal();
          }
          // Special s sits in class s of row s, whose features are zero
          // except every third one from s: no feature meets two specials.
          for (std::size_t s = 0; s < 3 && s < n && s < ny; ++s) {
            a(s, s) = specials[s];
            for (std::size_t f = 0; f < p; ++f) {
              if (f % 3 != s) x(s, f) = f % 2 ? -0.0 : 0.0;
            }
          }
          std::vector<std::size_t> reversed(n);
          std::iota(reversed.rbegin(), reversed.rend(), std::size_t{0});
          Matrix a_rev(n, ny);
          for (std::size_t r = 0; r < n; ++r) {
            a_rev.set_row(r, a.row(reversed[r]));
          }
          Matrix w;
          Vector b;
          back_project(a_rev, RowRefs(x, /*bias=*/true).subset(reversed), w,
                       b);
          const Matrix c_t = matmul_at_b(x, a);
          ASSERT_EQ(w.rows(), ny);
          ASSERT_EQ(w.cols(), p);
          ASSERT_EQ(b.size(), ny);
          // The plain loop over rows in `order`, skipping zero features.
          const auto plain = [&](const std::vector<std::size_t>& order,
                                 std::size_t c, std::size_t f) {
            double sum = 0.0;
            for (std::size_t r : order) {
              if (x(r, f) != 0.0) sum += x(r, f) * a(r, c);
            }
            return sum;
          };
          std::vector<std::size_t> forward(n);
          std::iota(forward.begin(), forward.end(), std::size_t{0});
          for (std::size_t c = 0; c < ny; ++c) {
            double bias = 0.0;
            for (std::size_t r : reversed) bias += a(r, c);
            ASSERT_TRUE(same_bits(b[c], bias))
                << "n=" << n << " p=" << p << " ny=" << ny << " bias " << c;
            for (std::size_t f = 0; f < p; ++f) {
              ASSERT_TRUE(same_bits(w(c, f), plain(reversed, c, f)))
                  << "n=" << n << " p=" << p << " ny=" << ny << " entry ("
                  << c << ", " << f << ")";
              ASSERT_TRUE(same_bits(c_t(f, c), plain(forward, c, f)))
                  << "matmul_at_b n=" << n << " p=" << p << " ny=" << ny
                  << " entry (" << f << ", " << c << ")";
            }
          }
        }
      }
    }
  });
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(5);
  Vector v(100);
  RunningStats rs;
  for (double& x : v) {
    x = rng.normal(3.0, 2.0);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(v), 1e-10);
  EXPECT_DOUBLE_EQ(rs.min(), min_value(v));
  EXPECT_DOUBLE_EQ(rs.max(), max_value(v));
}

}  // namespace
}  // namespace dfr
