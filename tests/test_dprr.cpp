// Unit tests for the DPRR layer and the alternative representations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dfr/dprr.hpp"
#include "dfr/representation.hpp"
#include "util/rng.hpp"

namespace dfr {
namespace {

Matrix random_states(std::size_t t_len, std::size_t nx, std::uint64_t seed) {
  Rng rng(seed);
  Matrix states(t_len + 1, nx);  // row 0 stays zero (x(0) = 0)
  for (std::size_t k = 1; k <= t_len; ++k) {
    for (std::size_t n = 0; n < nx; ++n) states(k, n) = rng.normal();
  }
  return states;
}

TEST(Dprr, DimensionFormula) {
  EXPECT_EQ(dprr_dim(30), 930u);
  EXPECT_EQ(dprr_dim(1), 2u);
  EXPECT_EQ(dprr_dim(5), 30u);
}

TEST(Dprr, HandComputedTinyCase) {
  // Nx = 2, T = 2. x(0) = (0,0), x(1) = (1,2), x(2) = (3,4).
  Matrix states{{0, 0}, {1, 2}, {3, 4}};
  const Vector r = dprr_from_states(states);
  ASSERT_EQ(r.size(), 6u);
  // r[i*2+j] = sum_k x(k)_i x(k-1)_j:
  //   r[0] = 1*0 + 3*1 = 3;   r[1] = 1*0 + 3*2 = 6
  //   r[2] = 2*0 + 4*1 = 4;   r[3] = 2*0 + 4*2 = 8
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 6.0);
  EXPECT_DOUBLE_EQ(r[2], 4.0);
  EXPECT_DOUBLE_EQ(r[3], 8.0);
  // state sums: r[4] = 1+3 = 4; r[5] = 2+4 = 6.
  EXPECT_DOUBLE_EQ(r[4], 4.0);
  EXPECT_DOUBLE_EQ(r[5], 6.0);
}

TEST(Dprr, AccumulatorMatchesBatch) {
  const Matrix states = random_states(13, 7, 101);
  const Vector batch = dprr_from_states(states);
  DprrAccumulator acc(7);
  for (std::size_t k = 1; k <= 13; ++k) acc.add(states.row(k), states.row(k - 1));
  EXPECT_LT(max_abs_diff(acc.features(), batch), 1e-14);
  EXPECT_EQ(acc.steps(), 13u);
}

TEST(Dprr, ResetClearsState) {
  DprrAccumulator acc(3);
  Vector a = {1, 2, 3}, b = {4, 5, 6};
  acc.add(a, b);
  acc.reset();
  EXPECT_EQ(acc.steps(), 0u);
  EXPECT_EQ(max_abs(acc.features()), 0.0);
}

TEST(Dprr, MatchesOuterProductDefinition) {
  // r = vec( sum_k x(k) [x(k-1), 1]^T ) — check against a literal
  // outer-product implementation.
  const std::size_t nx = 5, t_len = 9;
  const Matrix states = random_states(t_len, nx, 77);
  Matrix outer(nx, nx + 1);
  for (std::size_t k = 1; k <= t_len; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      for (std::size_t j = 0; j < nx; ++j) {
        outer(i, j) += states(k, i) * states(k - 1, j);
      }
      outer(i, nx) += states(k, i);
    }
  }
  const Vector r = dprr_from_states(states);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < nx; ++j) {
      EXPECT_NEAR(r[i * nx + j], outer(i, j), 1e-12);
    }
    EXPECT_NEAR(r[nx * nx + i], outer(i, nx), 1e-12);
  }
}

class DprrShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DprrShapeSweep, AccumulatorAgreesWithBatchAcrossShapes) {
  const auto [t_len, nx] = GetParam();
  const Matrix states = random_states(t_len, nx, 1000 + t_len * 31 + nx);
  const Vector batch = dprr_from_states(states);
  DprrAccumulator acc(nx);
  for (std::size_t k = 1; k <= t_len; ++k) acc.add(states.row(k), states.row(k - 1));
  EXPECT_LT(max_abs_diff(acc.features(), batch), 1e-12);
  EXPECT_EQ(batch.size(), dprr_dim(nx));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DprrShapeSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 50),
                       ::testing::Values<std::size_t>(1, 3, 10, 30)));

// ---- the accumulator's ring against a plain loop ---------------------------

/// One (x(k), x(k-1)) pair per step.
using StatePairs =
    std::vector<std::pair<std::span<const double>, std::span<const double>>>;

/// The DPRR definition as a plain loop over the pairs, rounded like `fused`
/// says: one std::fma per accumulate, or a multiply and then an add.
Vector plain_dprr(const StatePairs& pairs, std::size_t nx, bool fused) {
  Vector r(dprr_dim(nx), 0.0);
  for (const auto& [x_k, x_km1] : pairs) {
    for (std::size_t i = 0; i < nx; ++i) {
      for (std::size_t j = 0; j < nx; ++j) {
        double& rij = r[i * nx + j];
        rij = fused ? std::fma(x_k[i], x_km1[j], rij) : rij + x_k[i] * x_km1[j];
      }
      r[nx * nx + i] += x_k[i];
    }
  }
  return r;
}

void expect_same_bits(const Vector& expected, const Vector& got,
                      const std::string& context) {
  ASSERT_EQ(expected.size(), got.size()) << context;
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_EQ(std::memcmp(expected.data(), got.data(),
                        expected.size() * sizeof(double)),
            0)
      << context;
#else
  // This TU is built without -ffp-contract=off, so elsewhere the plain loop's
  // multiply-then-add may itself fuse.
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected[i], got[i], 1e-12 * (1.0 + std::fabs(expected[i])))
        << context << " i=" << i;
  }
#endif
}

// DprrAccumulator (ring, flush at each full block and at features()) on
// every backend and both roundings, against the plain loop: stepped through
// next()/commit() twice with a reset between, and fed through add() with one
// pair that does not continue the chain. Series lengths sit around the
// block length K, so partial and exact final blocks both occur. The scalar
// backend has no FMA kernel: its float rounding is the plain two-rounding
// loop too.
TEST(Dprr, AccumulatorBitIdenticalToPlainLoop) {
  constexpr std::size_t kK = DprrAccumulator::kBlockSteps;
  for (std::size_t nx : {1, 3, 8, 30, 101}) {
    for (std::size_t t_len :
         {std::size_t{1}, kK - 1, kK, kK + 1, std::size_t{151}}) {
      const Matrix states = random_states(t_len, nx, 500 + t_len * 7 + nx);
      const Matrix other = random_states(1, nx, 900 + nx);
      StatePairs chained, broken;
      for (std::size_t k = 1; k <= t_len; ++k) {
        chained.emplace_back(states.row(k), states.row(k - 1));
        const bool break_chain = k == t_len / 2 + 1;
        broken.emplace_back(states.row(k),
                            break_chain ? other.row(1) : states.row(k - 1));
      }
      for (simd::Backend b :
           {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon,
            simd::Backend::kAvx512}) {
        if (!simd::backend_available(b)) continue;
        for (DprrRounding rounding :
             {DprrRounding::kExact, DprrRounding::kFloat}) {
          const bool fused =
              rounding == DprrRounding::kFloat && b != simd::Backend::kScalar;
          const std::string context =
              std::string(simd::backend_name(b)) + (fused ? " fma" : " exact") +
              " nx=" + std::to_string(nx) + " T=" + std::to_string(t_len);
          DprrAccumulator acc(nx, rounding, b);
          for (int pass = 0; pass < 2; ++pass) {
            acc.reset();
            for (std::size_t k = 1; k <= t_len; ++k) {
              const auto x_k = states.row(k);
              std::copy(x_k.begin(), x_k.end(), acc.next().begin());
              acc.commit();
            }
            EXPECT_EQ(acc.steps(), t_len) << context;
            expect_same_bits(plain_dprr(chained, nx, fused), acc.features(),
                             context + " pass " + std::to_string(pass));
          }
          acc.reset();
          for (const auto& [x_k, x_km1] : broken) acc.add(x_k, x_km1);
          expect_same_bits(plain_dprr(broken, nx, fused), acc.features(),
                           context + " add()");
        }
      }
    }
  }
}

// ---- representations --------------------------------------------------------

TEST(Representation, DimsPerKind) {
  EXPECT_EQ(representation_dim(RepresentationKind::kDprr, 30), 930u);
  EXPECT_EQ(representation_dim(RepresentationKind::kLastState, 30), 30u);
  EXPECT_EQ(representation_dim(RepresentationKind::kMeanState, 30), 30u);
  EXPECT_EQ(representation_dim(RepresentationKind::kLastAndMean, 30), 60u);
}

TEST(Representation, DprrIsTimeAveraged) {
  const Matrix states = random_states(8, 4, 55);
  const Vector raw = dprr_from_states(states);
  const Vector rep = compute_representation(RepresentationKind::kDprr, states);
  ASSERT_EQ(rep.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(rep[i], raw[i] / 8.0, 1e-15);
  }
}

TEST(Representation, LastStateIsFinalRow) {
  const Matrix states = random_states(6, 4, 66);
  const Vector rep = compute_representation(RepresentationKind::kLastState, states);
  EXPECT_LT(max_abs_diff(rep, states.row(6)), 1e-15);
}

TEST(Representation, MeanStateAveragesRows) {
  Matrix states{{0, 0}, {2, 4}, {4, 8}};
  const Vector rep = compute_representation(RepresentationKind::kMeanState, states);
  EXPECT_DOUBLE_EQ(rep[0], 3.0);
  EXPECT_DOUBLE_EQ(rep[1], 6.0);
}

TEST(Representation, LastAndMeanConcatenates) {
  Matrix states{{0, 0}, {2, 4}, {4, 8}};
  const Vector rep =
      compute_representation(RepresentationKind::kLastAndMean, states);
  ASSERT_EQ(rep.size(), 4u);
  EXPECT_DOUBLE_EQ(rep[0], 4.0);  // last
  EXPECT_DOUBLE_EQ(rep[1], 8.0);
  EXPECT_DOUBLE_EQ(rep[2], 3.0);  // mean
  EXPECT_DOUBLE_EQ(rep[3], 6.0);
}

TEST(Representation, ParseRoundTrip) {
  for (auto kind : {RepresentationKind::kDprr, RepresentationKind::kLastState,
                    RepresentationKind::kMeanState,
                    RepresentationKind::kLastAndMean}) {
    EXPECT_EQ(parse_representation(representation_name(kind)), kind);
  }
  EXPECT_THROW(parse_representation("bogus"), CheckError);
}

}  // namespace
}  // namespace dfr
