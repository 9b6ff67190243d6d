// Unit tests for the dataset substrate: container, specs, synthetic
// generator, preprocessing, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "data/io.hpp"
#include "data/preprocess.hpp"
#include "data/specs.hpp"
#include "data/synth.hpp"
#include "util/rng.hpp"

namespace dfr {
namespace {

TEST(Dataset, AddValidatesShapeAndLabel) {
  Dataset d("t", 2, 4, 3);
  Sample good{Matrix(4, 3), 1};
  d.add(good);
  EXPECT_EQ(d.size(), 1u);
  Sample bad_shape{Matrix(5, 3), 0};
  EXPECT_THROW(d.add(bad_shape), CheckError);
  Sample bad_label{Matrix(4, 3), 2};
  EXPECT_THROW(d.add(bad_label), CheckError);
}

TEST(Dataset, ClassHistogram) {
  Dataset d("t", 3, 2, 1);
  for (int label : {0, 1, 1, 2, 2, 2}) d.add({Matrix(2, 1), label});
  const auto hist = d.class_histogram();
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 3u);
}

TEST(Dataset, CappedPreservesClassBalance) {
  Dataset d("t", 2, 2, 1);
  for (int i = 0; i < 20; ++i) d.add({Matrix(2, 1), 0});
  for (int i = 0; i < 20; ++i) d.add({Matrix(2, 1), 1});
  const Dataset capped = d.capped(10);
  EXPECT_EQ(capped.size(), 10u);
  const auto hist = capped.class_histogram();
  EXPECT_EQ(hist[0], 5u);
  EXPECT_EQ(hist[1], 5u);
}

TEST(Dataset, CappedNoOpWhenSmaller) {
  Dataset d("t", 2, 2, 1);
  d.add({Matrix(2, 1), 0});
  EXPECT_EQ(d.capped(100).size(), 1u);
}

TEST(Dataset, StratifiedSplitKeepsAllSamplesAndBothSidesPerClass) {
  Dataset d("t", 3, 2, 1);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) d.add({Matrix(2, 1), c});
  }
  Rng rng(3);
  auto [first, second] = d.stratified_split(0.8, rng);
  EXPECT_EQ(first.size() + second.size(), 30u);
  for (auto count : first.class_histogram()) EXPECT_GE(count, 1u);
  for (auto count : second.class_histogram()) EXPECT_GE(count, 1u);
  EXPECT_EQ(first.size(), 24u);
}

TEST(Dataset, StratifiedSplitIsSubsetOfSplitIndices) {
  Dataset d("t", 3, 2, 1);
  for (int i = 0; i < 17; ++i) {
    Matrix series(2, 1);
    series(0, 0) = i;  // distinct content, so a subset shows which samples
    d.add({series, i % 5 == 0 ? 2 : i % 2});
  }
  Rng index_rng(11), split_rng(11);
  const auto [first_idx, second_idx] = d.stratified_split_indices(0.7, index_rng);
  const auto [first, second] = d.stratified_split(0.7, split_rng);

  // The index parts partition [0, n) and are sorted.
  std::vector<std::size_t> all = first_idx;
  all.insert(all.end(), second_idx.begin(), second_idx.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  EXPECT_EQ(all.size(), d.size());
  EXPECT_TRUE(std::is_sorted(first_idx.begin(), first_idx.end()));
  EXPECT_TRUE(std::is_sorted(second_idx.begin(), second_idx.end()));

  for (const auto& [part, idx] : {std::pair{&first, &first_idx},
                                  std::pair{&second, &second_idx}}) {
    const Dataset expected = d.subset(*idx);
    ASSERT_EQ(part->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*part)[i].series, expected[i].series);
      EXPECT_EQ((*part)[i].label, expected[i].label);
    }
  }
}

TEST(Specs, TwelveDatasetsWithPaperShapes) {
  const auto& specs = evaluation_specs();
  ASSERT_EQ(specs.size(), 12u);
  const auto arab = find_spec("ARAB");
  ASSERT_TRUE(arab.has_value());
  EXPECT_EQ(arab->channels, 13u);
  EXPECT_EQ(arab->length, 92u);
  EXPECT_EQ(arab->num_classes, 10);
  EXPECT_EQ(arab->train_size, 6600u);
  const auto walk = find_spec("WALK");
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->length, 1917u);
  EXPECT_EQ(walk->num_classes, 2);
  EXPECT_FALSE(find_spec("NOPE").has_value());
}

TEST(Synth, ShapesMatchSpec) {
  DatasetSpec spec = *find_spec("JPVOW");
  // Shrink sizes for test speed; shapes must still match the spec fields.
  spec.train_size = 27;
  spec.test_size = 18;
  const DatasetPair pair = generate_synthetic(spec);
  EXPECT_EQ(pair.train.size(), 27u);
  EXPECT_EQ(pair.test.size(), 18u);
  EXPECT_EQ(pair.train.length(), spec.length);
  EXPECT_EQ(pair.train.channels(), spec.channels);
  EXPECT_EQ(pair.train.num_classes(), spec.num_classes);
  // Balanced round-robin labels: every class present.
  for (auto count : pair.train.class_histogram()) EXPECT_GE(count, 3u);
}

TEST(Synth, DeterministicAcrossCalls) {
  const DatasetPair a = generate_toy_task(3, 2, 20, 4, 2, 0.5, 99);
  const DatasetPair b = generate_toy_task(3, 2, 20, 4, 2, 0.5, 99);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_TRUE(a.train[i].series == b.train[i].series);
    EXPECT_EQ(a.train[i].label, b.train[i].label);
  }
}

TEST(Synth, SeedChangesData) {
  const DatasetPair a = generate_toy_task(3, 2, 20, 4, 2, 0.5, 1);
  const DatasetPair b = generate_toy_task(3, 2, 20, 4, 2, 0.5, 2);
  EXPECT_FALSE(a.train[0].series == b.train[0].series);
}

TEST(Synth, ClassesAreSeparatedMoreThanWithinClassVariation) {
  // Mean pairwise distance between class prototypes should exceed the mean
  // distance between samples of the same class at moderate difficulty.
  const DatasetPair pair = generate_toy_task(2, 2, 64, 8, 1, 0.5, 7);
  auto mean_series = [&](int label) {
    Vector m(64 * 2, 0.0);
    int count = 0;
    for (const auto& s : pair.train.samples()) {
      if (s.label != label) continue;
      for (std::size_t t = 0; t < 64; ++t) {
        for (std::size_t v = 0; v < 2; ++v) m[t * 2 + v] += s.series(t, v);
      }
      ++count;
    }
    for (double& x : m) x /= count;
    return m;
  };
  const Vector m0 = mean_series(0), m1 = mean_series(1);
  double between = 0.0;
  for (std::size_t i = 0; i < m0.size(); ++i) {
    between += (m0[i] - m1[i]) * (m0[i] - m1[i]);
  }
  EXPECT_GT(std::sqrt(between / m0.size()), 0.3);
}

TEST(Preprocess, StandardizationZeroMeanUnitVariance) {
  DatasetPair pair = generate_toy_task(2, 3, 40, 10, 2, 1.0, 21);
  standardize_pair(pair);
  // Recompute stats on the standardized train split: ~N(0,1) per channel.
  const ChannelStats after = compute_channel_stats(pair.train);
  for (std::size_t v = 0; v < 3; ++v) {
    EXPECT_NEAR(after.mean[v], 0.0, 1e-10);
    EXPECT_NEAR(after.scale[v], 1.0, 1e-6);  // scale = 1/std
  }
}

TEST(Preprocess, TestSplitUsesTrainStatistics) {
  DatasetPair pair = generate_toy_task(2, 1, 30, 5, 5, 0.5, 23);
  const double raw_test_value = pair.test[0].series(0, 0);
  const ChannelStats stats = compute_channel_stats(pair.train);
  standardize_pair(pair);
  EXPECT_NEAR(pair.test[0].series(0, 0),
              (raw_test_value - stats.mean[0]) * stats.scale[0], 1e-12);
}

TEST(Preprocess, ResampleLengthEndpointsPreserved) {
  Dataset d("t", 2, 5, 1);
  Sample s;
  s.series = Matrix{{0.0}, {1.0}, {2.0}, {3.0}, {4.0}};
  s.label = 0;
  d.add(s);
  const Dataset up = resample_length(d, 9);
  EXPECT_EQ(up.length(), 9u);
  EXPECT_DOUBLE_EQ(up[0].series(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(up[0].series(8, 0), 4.0);
  EXPECT_NEAR(up[0].series(4, 0), 2.0, 1e-12);  // midpoint
}

TEST(Io, RoundTripPreservesEverything) {
  const auto tmp =
      (std::filesystem::temp_directory_path() / "dfr_io_test.rcds").string();
  const DatasetPair pair = generate_toy_task(3, 2, 15, 3, 1, 0.5, 31);
  save_dataset(pair.train, tmp);
  const Dataset loaded = load_dataset(tmp);
  EXPECT_EQ(loaded.name(), pair.train.name());
  EXPECT_EQ(loaded.num_classes(), pair.train.num_classes());
  ASSERT_EQ(loaded.size(), pair.train.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_TRUE(loaded[i].series == pair.train[i].series);
    EXPECT_EQ(loaded[i].label, pair.train[i].label);
  }
  std::remove(tmp.c_str());
}

TEST(Io, RejectsGarbageFile) {
  const auto tmp =
      (std::filesystem::temp_directory_path() / "dfr_io_garbage.rcds").string();
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "this is not an RCDS file";
  }
  EXPECT_THROW(load_dataset(tmp), CheckError);
  std::remove(tmp.c_str());
}

TEST(Io, PairRoundTrip) {
  const auto prefix =
      (std::filesystem::temp_directory_path() / "dfr_io_pair").string();
  const DatasetPair pair = generate_toy_task(2, 1, 10, 2, 2, 0.5, 37);
  save_pair(pair, prefix);
  const DatasetPair loaded = load_pair(prefix);
  EXPECT_EQ(loaded.train.size(), pair.train.size());
  EXPECT_EQ(loaded.test.size(), pair.test.size());
  std::remove((prefix + ".train.rcds").c_str());
  std::remove((prefix + ".test.rcds").c_str());
}

}  // namespace
}  // namespace dfr
