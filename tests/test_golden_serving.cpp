// Golden-value test for the SIMD serving engines: the single-series engines
// (make_simd_engine) and the batched engine's lanes (make_batched_engine),
// float and quantized, on every available backend. test_batched compares
// batched lanes with the single-series SIMD engine; this pins the absolute
// bits of both, so an arithmetic change that moved both alike still fails.
//
// Each result is folded into a digest of its values' bit patterns. The
// models are synthetic serving models (serve/synth.hpp) at Nx = 30 and at an
// odd Nx, and the series are longer than one DPRR block
// (DprrAccumulator::kBlockSteps), so a partial block runs too. Float digests
// split by rounding: the AVX2 and AVX-512 kernels fuse each DPRR accumulate
// (one digest for both), the scalar backend does not. The quantized family
// is exact, so one digest holds on every backend.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/engine.hpp"
#include "serve/synth.hpp"

namespace dfr {
namespace {

// Recorded with g++ 12 on x86-64 (Release), before the batched engine's
// DPRR moved from its own SoA accumulate kernel to the block kernel.
constexpr std::uint64_t kSingleFloatFmaDigest = 3578963565764889193u;
constexpr std::uint64_t kSingleFloatScalarDigest = 17360632242126778014u;
constexpr std::uint64_t kSingleQuantDigest = 12386091322786193269u;
constexpr std::uint64_t kBatchedFloatFmaDigest = 765404790178524081u;
constexpr std::uint64_t kBatchedFloatScalarDigest = 17431226845782212807u;
constexpr std::uint64_t kBatchedQuantDigest = 3321961769256488704u;

constexpr std::size_t kSteps = 75;  // two whole blocks of 32 and a partial one
constexpr std::size_t kSeries = 8;
constexpr std::size_t kLaneCounts[] = {2, 3, 8};

/// FNV-1a over the bytes of each value's bit pattern, in order.
class Digest {
 public:
  Digest& add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3u;
    }
    return *this;
  }
  Digest& add(std::span<const double> values) {
    for (double v : values) add(v);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325u;
};

/// The two models: the paper's Nx = 30, and Nx = 13, which leaves a half
/// vector and a scalar remainder on AVX-512 and a scalar one on AVX2.
const std::vector<ModelArtifactPtr>& models() {
  static const std::vector<ModelArtifactPtr> all = [] {
    serve::SynthModelSpec wide;
    wide.nodes = 30;
    wide.seed = 1901;
    serve::SynthModelSpec odd;
    odd.nodes = 13;
    odd.seed = 1902;
    return std::vector<ModelArtifactPtr>{
        serve::make_synth_artifact("golden-30", wide),
        serve::make_synth_artifact("golden-13", odd)};
  }();
  return all;
}

const std::vector<Matrix>& series() {
  static const std::vector<Matrix> all = [] {
    std::vector<Matrix> s;
    for (std::size_t i = 0; i < kSeries; ++i) {
      s.push_back(serve::make_synth_series(kSteps, 2, 500 + i));
    }
    return s;
  }();
  return all;
}

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> backends;
  for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                          simd::Backend::kNeon, simd::Backend::kAvx512}) {
    if (simd::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

/// Runs `check(backend)` on every available backend. The digests were
/// recorded on x86-64, where no backend's baseline code fuses a multiply and
/// an add; elsewhere the scalar reference itself may (simd_kernels.hpp).
template <class Check>
void on_every_backend(const Check& check) {
#if !(defined(__x86_64__) || defined(_M_X64))
  GTEST_SKIP() << "digests recorded on x86-64";
#endif
  for (simd::Backend b : available_backends()) check(b);
}

/// The float family's digest for `backend`: fused DPRR or plain.
std::uint64_t float_digest(simd::Backend backend, std::uint64_t fma,
                           std::uint64_t scalar) {
  return backend == simd::Backend::kScalar ? scalar : fma;
}

/// Every series' logits from one single-series engine per model.
template <class MakeEngine>
std::uint64_t single_digest(const MakeEngine& make) {
  Digest d;
  for (const ModelArtifactPtr& model : models()) {
    auto engine = make(model);
    for (const Matrix& s : series()) d.add(engine.infer(s));
  }
  return d.value();
}

/// Every lane's logits and features, per model and lane count.
template <class MakeEngine>
std::uint64_t batched_digest(const MakeEngine& make) {
  Digest d;
  for (const ModelArtifactPtr& model : models()) {
    for (std::size_t lanes : kLaneCounts) {
      auto engine = make(model, lanes);
      std::vector<const Matrix*> batch;
      for (std::size_t l = 0; l < lanes; ++l) batch.push_back(&series()[l]);
      engine.infer(batch);
      for (std::size_t l = 0; l < lanes; ++l) {
        d.add(engine.lane_logits(l)).add(engine.lane_features(l));
      }
    }
  }
  return d.value();
}

TEST(GoldenServing, SimdFloatEngineMatchesRecordedDigest) {
  on_every_backend([](simd::Backend b) {
    const std::uint64_t got = single_digest(
        [b](const ModelArtifactPtr& m) { return make_simd_engine(m, b); });
    EXPECT_EQ(got, float_digest(b, kSingleFloatFmaDigest,
                                kSingleFloatScalarDigest))
        << simd::backend_name(b);
  });
}

TEST(GoldenServing, SimdQuantizedEngineMatchesRecordedDigest) {
  on_every_backend([](simd::Backend b) {
    const std::uint64_t got =
        single_digest([b](const ModelArtifactPtr& m) {
          return make_simd_engine(m->quantized, b);
        });
    EXPECT_EQ(got, kSingleQuantDigest) << simd::backend_name(b);
  });
}

TEST(GoldenServing, BatchedFloatLanesMatchRecordedDigest) {
  on_every_backend([](simd::Backend b) {
    const std::uint64_t got =
        batched_digest([b](const ModelArtifactPtr& m, std::size_t lanes) {
          return make_batched_engine(m, lanes, b);
        });
    EXPECT_EQ(got, float_digest(b, kBatchedFloatFmaDigest,
                                kBatchedFloatScalarDigest))
        << simd::backend_name(b);
  });
}

TEST(GoldenServing, BatchedQuantizedLanesMatchRecordedDigest) {
  on_every_backend([](simd::Backend b) {
    const std::uint64_t got =
        batched_digest([b](const ModelArtifactPtr& m, std::size_t lanes) {
          return make_batched_engine(m->quantized, lanes, b);
        });
    EXPECT_EQ(got, kBatchedQuantDigest) << simd::backend_name(b);
  });
}

}  // namespace
}  // namespace dfr
