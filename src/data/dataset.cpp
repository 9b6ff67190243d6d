#include "data/dataset.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace dfr {

void Dataset::add(Sample sample) {
  DFR_CHECK_MSG(sample.series.rows() == length_ && sample.series.cols() == channels_,
                "sample shape mismatch for dataset " + name_);
  DFR_CHECK_MSG(sample.label >= 0 && sample.label < num_classes_,
                "label out of range for dataset " + name_);
  samples_.push_back(std::move(sample));
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(static_cast<std::size_t>(num_classes_), 0);
  for (const auto& s : samples_) ++hist[static_cast<std::size_t>(s.label)];
  return hist;
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out(name_, num_classes_, length_, channels_);
  for (std::size_t i : indices) {
    DFR_CHECK(i < samples_.size());
    out.add(samples_[i]);
  }
  return out;
}

Dataset Dataset::capped(std::size_t max_samples) const {
  if (samples_.size() <= max_samples) return *this;
  // Round-robin over classes so small classes keep representation.
  std::vector<std::vector<std::size_t>> per_class(
      static_cast<std::size_t>(num_classes_));
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    per_class[static_cast<std::size_t>(samples_[i].label)].push_back(i);
  }
  std::vector<std::size_t> chosen;
  chosen.reserve(max_samples);
  std::size_t round = 0;
  while (chosen.size() < max_samples) {
    bool any = false;
    for (const auto& cls : per_class) {
      if (round < cls.size() && chosen.size() < max_samples) {
        chosen.push_back(cls[round]);
        any = true;
      }
    }
    if (!any) break;
    ++round;
  }
  std::sort(chosen.begin(), chosen.end());
  return subset(chosen);
}

std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
Dataset::stratified_split_indices(double first_fraction, Rng& rng) const {
  DFR_CHECK(first_fraction > 0.0 && first_fraction < 1.0);
  std::vector<std::vector<std::size_t>> per_class(
      static_cast<std::size_t>(num_classes_));
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    per_class[static_cast<std::size_t>(samples_[i].label)].push_back(i);
  }
  std::vector<std::size_t> first_idx, second_idx;
  for (auto& cls : per_class) {
    rng.shuffle(cls);
    // At least one sample on each side when the class has >= 2 samples.
    std::size_t n_first = static_cast<std::size_t>(
        static_cast<double>(cls.size()) * first_fraction + 0.5);
    if (cls.size() >= 2) {
      n_first = std::clamp<std::size_t>(n_first, 1, cls.size() - 1);
    } else {
      n_first = std::min<std::size_t>(n_first, cls.size());
    }
    for (std::size_t i = 0; i < cls.size(); ++i) {
      (i < n_first ? first_idx : second_idx).push_back(cls[i]);
    }
  }
  std::sort(first_idx.begin(), first_idx.end());
  std::sort(second_idx.begin(), second_idx.end());
  return {std::move(first_idx), std::move(second_idx)};
}

std::pair<Dataset, Dataset> Dataset::stratified_split(double first_fraction,
                                                      Rng& rng) const {
  const auto [first_idx, second_idx] =
      stratified_split_indices(first_fraction, rng);
  return {subset(first_idx), subset(second_idx)};
}

}  // namespace dfr
