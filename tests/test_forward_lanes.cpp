// Tests for the lockstep training forward (dfr/backprop.hpp ForwardLanes).
// The contracts under test:
//   - compute_features' rows, which run through it in groups of kLanes, have
//     the bits of the single-series FloatDatapath engine's features, on every
//     backend, nonlinearity and remainder Nx, for every size of the last
//     group and any thread count;
//   - run_forward_truncated, its one-lane call, returns the DPRR and tail of
//     a plain Mask::apply_into + ModularReservoir::step +
//     DprrAccumulator::add loop, for windows shorter than, equal to and
//     longer than the series;
//   - a lane's DPRR and tail in a group of any size, pad lanes included,
//     are its one-lane run's;
//   - after construction, run() and the lane accessors allocate nothing;
//   - malformed groups throw CheckError.
// Bit-identity is asserted on x86-64, where the batched step kernels round
// exactly like the scalar step (see simd_kernels.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "dfr/backprop.hpp"
#include "dfr/features.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

// ---- allocation instrumentation (same scheme as test_serve.cpp) ------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfr {
namespace {

constexpr std::size_t kLanes = ForwardLanes::kLanes;

constexpr NonlinearityKind kAllKinds[] = {
    NonlinearityKind::kIdentity,  NonlinearityKind::kMackeyGlass,
    NonlinearityKind::kTanh,      NonlinearityKind::kSine,
    NonlinearityKind::kCubic,     NonlinearityKind::kSaturating,
};

// Nx sizes that hit every remainder mod the NEON (2), AVX2 (4), and AVX-512
// (8) widths, as in test_batched.cpp.
constexpr std::size_t kRemainderSizes[] = {1, 2, 3, 4, 5, 7, 8, 16, 30, 101};

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> backends;
  for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                          simd::Backend::kNeon, simd::Backend::kAvx512}) {
    if (simd::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

/// Restores the active backend when a test that forces one ends.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_backend()) {}
  ~BackendGuard() { simd::force_backend(saved_); }

 private:
  simd::Backend saved_;
};

Matrix random_series(std::size_t t_len, std::size_t channels, Rng& rng) {
  Matrix m(t_len, channels);
  for (std::size_t k = 0; k < t_len; ++k) {
    for (std::size_t v = 0; v < channels; ++v) m(k, v) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Dataset random_dataset(std::size_t n, std::size_t t_len, std::size_t channels,
                       Rng& rng) {
  Dataset d("lanes", 2, t_len, channels);
  for (std::size_t i = 0; i < n; ++i) {
    d.add(Sample{random_series(t_len, channels, rng), static_cast<int>(i % 2)});
  }
  return d;
}

void expect_same_bits(std::span<const double> expected,
                      std::span<const double> got, const std::string& context) {
  ASSERT_EQ(expected.size(), got.size()) << context;
#if defined(__x86_64__) || defined(_M_X64)
  ASSERT_EQ(std::memcmp(expected.data(), got.data(),
                        expected.size() * sizeof(double)),
            0)
      << context;
#else
  // Non-x86 scalar baselines may FMA-contract the step (simd_kernels.hpp).
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], got[i], 1e-9 * (1.0 + std::fabs(expected[i])))
        << context << " i=" << i;
  }
#endif
}

std::span<const double> all_of(const Matrix& m) {
  return {m.data(), m.size()};
}

// ---- compute_features against the single-series engine --------------------

TEST(ForwardLanes, FeatureRowsMatchSingleSeriesEngineBitForBit) {
  const BackendGuard guard;
  constexpr std::size_t kSteps = 11;
  constexpr std::size_t kChannels = 2;
  const DfrParams params{0.35, 0.25};
  for (simd::Backend backend : available_backends()) {
    simd::force_backend(backend);
    for (NonlinearityKind kind : kAllKinds) {
      const Nonlinearity f(kind, 2.0);
      for (std::size_t nx : kRemainderSizes) {
        Rng rng(1000 + nx);
        const Mask mask(nx, kChannels, MaskKind::kUniform, rng);
        const ModularReservoir reservoir(nx, f);
        // Sizes kLanes+1 .. 2*kLanes leave 1..kLanes lanes in the last group.
        const std::size_t n = kLanes + 1 + nx % kLanes;
        const Dataset data = random_dataset(n, kSteps, kChannels, rng);
        InferenceEngine engine(FloatDatapath(mask, params, f));
        for (unsigned threads : {1u, 4u}) {
          const FeatureMatrix fm = compute_features(
              reservoir, params, mask, data, RepresentationKind::kDprr,
              threads);
          for (std::size_t i = 0; i < n; ++i) {
            expect_same_bits(engine.features(data[i].series),
                             fm.features.row(i),
                             std::string(simd::backend_name(backend)) + " " +
                                 nonlinearity_name(kind) +
                                 " nx=" + std::to_string(nx) +
                                 " n=" + std::to_string(n) + " threads=" +
                                 std::to_string(threads) +
                                 " row=" + std::to_string(i));
            EXPECT_EQ(fm.labels[i], data[i].label);
          }
        }
      }
    }
  }
}

// Every size of the last group, on the default backend at the paper's Nx.
TEST(ForwardLanes, EveryLastGroupSizeMatchesSingleSeriesEngine) {
  constexpr std::size_t kNx = 30;
  const DfrParams params{0.2, 0.3};
  const Nonlinearity f;
  Rng rng(77);
  const Mask mask(kNx, 3, MaskKind::kBinary, rng);
  const ModularReservoir reservoir(kNx, f);
  InferenceEngine engine(FloatDatapath(mask, params, f));
  for (std::size_t n = 1; n <= 2 * kLanes; ++n) {
    const Dataset data = random_dataset(n, 40, 3, rng);
    for (unsigned threads : {1u, 4u}) {
      const FeatureMatrix fm = compute_features(
          reservoir, params, mask, data, RepresentationKind::kDprr, threads);
      for (std::size_t i = 0; i < n; ++i) {
        expect_same_bits(engine.features(data[i].series), fm.features.row(i),
                         "n=" + std::to_string(n) + " threads=" +
                             std::to_string(threads) +
                             " row=" + std::to_string(i));
      }
    }
  }
}

// ---- run_forward_truncated against a plain loop ----------------------------

TEST(ForwardLanes, TruncatedForwardMatchesPlainLoop) {
  const BackendGuard guard;
  constexpr std::size_t kSteps = 37;  // more than one DPRR block
  constexpr std::size_t kChannels = 3;
  const DfrParams params{0.3, 0.2};
  for (simd::Backend backend : available_backends()) {
    simd::force_backend(backend);
    for (std::size_t nx : kRemainderSizes) {
      Rng rng(500 + nx);
      const Nonlinearity f(NonlinearityKind::kTanh);
      const ModularReservoir reservoir(nx, f);
      const Mask mask(nx, kChannels, MaskKind::kUniform, rng);
      const Matrix series = random_series(kSteps, kChannels, rng);

      // The plain loop keeps the whole trajectory.
      Matrix states(kSteps + 1, nx);  // row 0 = x(0) = 0
      Matrix j(kSteps, nx);
      DprrAccumulator dprr(nx);
      for (std::size_t k = 0; k < kSteps; ++k) {
        mask.apply_into(series.row(k), j.row(k));
        reservoir.step(params, j.row(k), states.row(k), states.row(k + 1));
        dprr.add(states.row(k + 1), states.row(k));
      }

      for (std::size_t window : {std::size_t{1}, std::size_t{3}, kSteps,
                                 kSteps + 2}) {
        const std::string context = std::string(simd::backend_name(backend)) +
                                    " nx=" + std::to_string(nx) +
                                    " window=" + std::to_string(window);
        const TruncatedForward fwd =
            run_forward_truncated(reservoir, params, mask, series, window);
        const std::size_t kept = std::min(window, kSteps);
        ASSERT_EQ(fwd.steps, kSteps) << context;
        ASSERT_EQ(fwd.tail_states.rows(), kept + 1) << context;
        ASSERT_EQ(fwd.tail_j.rows(), kept) << context;
        expect_same_bits(dprr.features(), fwd.dprr, context + " dprr");
        for (std::size_t i = 0; i <= kept; ++i) {
          expect_same_bits(states.row(kSteps - kept + i),
                           fwd.tail_states.row(i),
                           context + " state row " + std::to_string(i));
        }
        for (std::size_t i = 0; i < kept; ++i) {
          expect_same_bits(j.row(kSteps - kept + i), fwd.tail_j.row(i),
                           context + " j row " + std::to_string(i));
        }
      }
    }
  }
}

// A lane's results do not depend on its batchmates or its lane index.
TEST(ForwardLanes, LanesMatchOneLaneRuns) {
  constexpr std::size_t kNx = 12;
  constexpr std::size_t kSteps = 20;
  const DfrParams params{0.25, 0.4};
  Rng rng(31);
  const ModularReservoir reservoir(kNx, Nonlinearity(NonlinearityKind::kCubic));
  const Mask mask(kNx, 2, MaskKind::kBinary, rng);
  std::vector<Matrix> batch;
  for (std::size_t l = 0; l < kLanes; ++l) {
    batch.push_back(random_series(kSteps, 2, rng));
  }
  std::vector<const Matrix*> ptrs;
  for (const Matrix& s : batch) ptrs.push_back(&s);

  ForwardLanes lanes(reservoir, mask, kSteps, 2);
  lanes.run(params, ptrs);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const TruncatedForward one =
        run_forward_truncated(reservoir, params, mask, batch[l], 2);
    const std::string context = "lane " + std::to_string(l);
    expect_same_bits(one.dprr, lanes.dprr(l), context);
    expect_same_bits(all_of(one.tail_states), all_of(lanes.tail_states(l)),
                     context);
    expect_same_bits(all_of(one.tail_j), all_of(lanes.tail_j(l)), context);
  }
  EXPECT_EQ(lanes.stored_state_values(), 3 * kNx);
}

// Every group size, pad lanes included: a lane's DPRR and tail do not depend
// on how many series share its group, over more than one lane-kernel block.
TEST(ForwardLanes, EveryGroupSizeMatchesOneLaneRuns) {
  constexpr std::size_t kNx = 9;
  constexpr std::size_t kSteps = SoaStep::kBlockSteps + 9;
  constexpr std::size_t kWindow = 3;
  const DfrParams params{0.3, 0.35};
  Rng rng(57);
  const ModularReservoir reservoir(kNx, Nonlinearity(NonlinearityKind::kTanh));
  const Mask mask(kNx, 2, MaskKind::kUniform, rng);
  std::vector<Matrix> batch;
  for (std::size_t l = 0; l < kLanes; ++l) {
    batch.push_back(random_series(kSteps, 2, rng));
  }
  std::vector<const Matrix*> ptrs;
  for (const Matrix& s : batch) ptrs.push_back(&s);

  ForwardLanes lanes(reservoir, mask, kSteps, kWindow);
  for (std::size_t n = 1; n <= kLanes; ++n) {
    lanes.run(params, std::span<const Matrix* const>(ptrs.data(), n));
    for (std::size_t l = 0; l < n; ++l) {
      const TruncatedForward one =
          run_forward_truncated(reservoir, params, mask, batch[l], kWindow);
      const std::string context =
          "n=" + std::to_string(n) + " lane " + std::to_string(l);
      expect_same_bits(one.dprr, lanes.dprr(l), context);
      expect_same_bits(all_of(one.tail_states), all_of(lanes.tail_states(l)),
                       context);
      expect_same_bits(all_of(one.tail_j), all_of(lanes.tail_j(l)), context);
    }
  }
}

// ---- allocation and argument contracts --------------------------------------

TEST(ForwardLanes, RunAllocatesNothingAfterConstruction) {
  constexpr std::size_t kNx = 30;
  constexpr std::size_t kSteps = 151;
  Rng rng(9);
  const ModularReservoir reservoir(kNx, Nonlinearity{});
  const Mask mask(kNx, 2, MaskKind::kBinary, rng);
  std::vector<Matrix> batch;
  for (std::size_t l = 0; l < kLanes; ++l) {
    batch.push_back(random_series(kSteps, 2, rng));
  }
  std::vector<const Matrix*> ptrs;
  for (const Matrix& s : batch) ptrs.push_back(&s);

  for (std::size_t window : {std::size_t{0}, std::size_t{1}, kSteps}) {
    ForwardLanes lanes(reservoir, mask, kSteps, window);
    const std::size_t before = g_allocations.load();
    double sink = 0.0;
    for (int round = 0; round < 8; ++round) {
      // Vary the group size: short groups reuse the same storage.
      const std::size_t n = (round % 2 == 0) ? kLanes : 1 + round % kLanes;
      lanes.run(DfrParams{0.1 * (1 + round % 3), 0.2},
                std::span<const Matrix* const>(ptrs.data(), n));
      for (std::size_t l = 0; l < n; ++l) {
        sink += lanes.dprr(l)[0];
        if (window > 0) {
          sink += lanes.tail_states(l)(0, 0) + lanes.tail_j(l)(0, 0);
        }
      }
    }
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "window=" << window << " sink=" << sink;
  }
}

TEST(ForwardLanes, MalformedGroupsThrow) {
  constexpr std::size_t kNx = 6;
  Rng rng(3);
  const ModularReservoir reservoir(kNx, Nonlinearity{});
  const Mask mask(kNx, 2, MaskKind::kBinary, rng);
  const Matrix good = random_series(10, 2, rng);
  const Matrix short_series = random_series(9, 2, rng);
  const Matrix wide = random_series(10, 3, rng);
  ForwardLanes lanes(reservoir, mask, 10, 1, 2);
  const DfrParams params;

  const std::vector<const Matrix*> none;
  EXPECT_THROW(lanes.run(params, none), CheckError);
  const std::vector<const Matrix*> too_many = {&good, &good, &good};
  EXPECT_THROW(lanes.run(params, too_many), CheckError);
  const std::vector<const Matrix*> wrong_length = {&good, &short_series};
  EXPECT_THROW(lanes.run(params, wrong_length), CheckError);
  const std::vector<const Matrix*> wrong_width = {&wide};
  EXPECT_THROW(lanes.run(params, wrong_width), CheckError);
  const std::vector<const Matrix*> null_lane = {&good, nullptr};
  EXPECT_THROW(lanes.run(params, null_lane), CheckError);

  const std::vector<const Matrix*> one = {&good};
  lanes.run(params, one);
  EXPECT_THROW((void)lanes.dprr(1), CheckError);  // beyond the last group

  const Mask other(kNx + 1, 2, MaskKind::kBinary, rng);
  EXPECT_THROW(ForwardLanes(reservoir, other, 10, 1), CheckError);
  EXPECT_THROW(ForwardLanes(reservoir, mask, 10, 1, 0), CheckError);
}

}  // namespace
}  // namespace dfr
