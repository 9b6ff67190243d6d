// Golden-value test for the two tuning paths the paper compares, on the ECG
// spec: Trainer::fit_multistart (backprop) and one 4x4 run_grid_level (grid
// search). Each result is folded into a digest of its values' bit patterns,
// recorded from a build whose training forward stepped one series at a time
// through ModularReservoir::step. Every stage is deterministic in the seed and
// bit-identical for any thread count, so any change in a digest means the
// arithmetic changed somewhere, not noise.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>

#include "data/preprocess.hpp"
#include "data/specs.hpp"
#include "data/synth.hpp"
#include "dfr/grid_search.hpp"
#include "dfr/trainer.hpp"

namespace dfr {
namespace {

constexpr std::uint64_t kSeed = 7;

// Recorded with g++ 12 on x86-64 (Release).
constexpr std::uint64_t kFitMultistartDigest = 9747639703578809426u;
constexpr std::uint64_t kGridLevelDigest = 1201621796851844670u;
constexpr std::uint64_t kFullBpttPerSampleDigest = 12483812801807828032u;
// The fit_multistart winner, readable.
constexpr double kFitA = 0x1.037ad40a64e08p-2;
constexpr double kFitB = 0x1.5ae87c7afe249p-2;
constexpr double kFitBeta = 0x1.47ae147ae147bp-7;
constexpr double kFitValidationLoss = 0x1.37c6e2f434f1ap-1;

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

const DatasetPair& ecg() {
  static const DatasetPair pair = [] {
    SynthConfig synth;
    synth.seed = kSeed;
    DatasetPair p = generate_synthetic(*find_spec("ECG"), synth);
    standardize_pair(p);
    return p;
  }();
  return pair;
}

/// A, B, the chosen beta, the validation loss, the readout and the
/// per-epoch history.
std::uint64_t digest_of(const TrainResult& m) {
  Digest d;
  d.add(m.params.a).add(m.params.b).add(m.chosen_beta).add(m.validation_loss);
  const Matrix& w = m.readout.weights();
  d.add(std::span<const double>(w.data(), w.size())).add(m.readout.bias());
  for (const EpochRecord& e : m.history) {
    d.add(static_cast<double>(e.epoch)).add(e.mean_loss).add(e.a).add(e.b);
    d.add(e.lr_reservoir).add(e.lr_output);
  }
  d.add(static_cast<double>(m.skipped_updates));
  d.add(static_cast<double>(m.stored_state_values));
  return d.value();
}

TEST(GoldenTraining, FitMultistartMatchesRecordedDigest) {
  TrainerConfig config;
  config.seed = kSeed;
  config.threads = 2;
  const TrainResult m = Trainer(config).fit_multistart(
      ecg().train, Trainer::default_restarts());
  EXPECT_EQ(m.params.a, kFitA);
  EXPECT_EQ(m.params.b, kFitB);
  EXPECT_EQ(m.chosen_beta, kFitBeta);
  EXPECT_EQ(m.validation_loss, kFitValidationLoss);
  EXPECT_EQ(digest_of(m), kFitMultistartDigest)
      << std::hexfloat << "A=" << m.params.a << " B=" << m.params.b
      << " beta=" << m.chosen_beta << " val_loss=" << m.validation_loss;
}

TEST(GoldenTraining, GridLevelMatchesRecordedDigest) {
  GridSearchConfig config;
  config.seed = kSeed;
  config.threads = 2;
  const GridLevelResult level =
      run_grid_level(config, ecg().train, ecg().test, 4);
  ASSERT_EQ(level.candidates.size(), 16u);
  Digest d;
  for (const GridCandidate& c : level.candidates) {
    d.add(c.a).add(c.b).add(c.valid ? 1.0 : 0.0);
    d.add(c.validation_loss).add(c.beta).add(c.test_accuracy);
  }
  EXPECT_EQ(d.value(), kGridLevelDigest)
      << std::hexfloat << "best loss=" << level.best().validation_loss
      << " best acc=" << level.best_by_test().test_accuracy;
}

// Per-sample reservoir updates and full BPTT: the forward runs one series at
// a time and keeps the whole trajectory.
TEST(GoldenTraining, FullBpttPerSampleUpdateMatchesRecordedDigest) {
  TrainerConfig config;
  config.seed = kSeed;
  config.epochs = 3;
  config.truncation_window = 0;
  config.reservoir_epoch_update = false;
  const TrainResult m = Trainer(config).fit(ecg().train);
  EXPECT_EQ(digest_of(m), kFullBpttPerSampleDigest)
      << std::hexfloat << "A=" << m.params.a << " B=" << m.params.b
      << " beta=" << m.chosen_beta << " val_loss=" << m.validation_loss;
}

}  // namespace
}  // namespace dfr
