#pragma once
// Multivariate time-series classification dataset container.
//
// A sample is a T x V matrix (T time steps, V channels) plus an integer class
// label in [0, num_classes). Samples within one dataset share T and V — the
// paper (following Bianchi et al.) resamples variable-length series to a
// common length before feeding the reservoir.

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace dfr {

struct Sample {
  Matrix series;   // T x V
  int label = 0;   // class index in [0, num_classes)
};

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, int num_classes, std::size_t length,
          std::size_t channels)
      : name_(std::move(name)),
        num_classes_(num_classes),
        length_(length),
        channels_(channels) {}

  /// Append a sample; shape and label range are validated.
  void add(Sample sample);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t length() const noexcept { return length_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  [[nodiscard]] const Sample& operator[](std::size_t i) const {
    DFR_CHECK(i < samples_.size());
    return samples_[i];
  }
  [[nodiscard]] Sample& operator[](std::size_t i) {
    DFR_CHECK(i < samples_.size());
    return samples_[i];
  }

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

  /// Per-class sample counts.
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

  /// Subset by indices (copies).
  [[nodiscard]] Dataset subset(const std::vector<std::size_t>& indices) const;

  /// Keep at most `max_samples`, preserving class balance as far as possible
  /// (round-robin over classes in original order). Used by the reduced-scale
  /// bench mode.
  [[nodiscard]] Dataset capped(std::size_t max_samples) const;

  /// Sample indices of a split into (first, second) with `first_fraction` of
  /// samples in the first part, stratified by class. Every index lands in
  /// exactly one part; both parts are sorted. Deterministic given the rng.
  [[nodiscard]] std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
  stratified_split_indices(double first_fraction, class Rng& rng) const;

  /// The same split as copied datasets: subset() of each index part.
  [[nodiscard]] std::pair<Dataset, Dataset> stratified_split(
      double first_fraction, class Rng& rng) const;

 private:
  std::string name_;
  int num_classes_ = 0;
  std::size_t length_ = 0;
  std::size_t channels_ = 0;
  std::vector<Sample> samples_;
};

/// Train/test pair as distributed by Bianchi et al.'s npz archives.
struct DatasetPair {
  Dataset train;
  Dataset test;
};

}  // namespace dfr
