// Direct tests for the .dfrm trained-model serialization format: round-trip
// fidelity, and CheckError rejection of corrupt / truncated / unwritable
// files. (The format previously had only indirect coverage via the
// integration and fixedpoint suites.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/preprocess.hpp"
#include "data/synth.hpp"
#include "dfr/model_io.hpp"
#include "dfr/trainer.hpp"
#include "serve/engine.hpp"

namespace dfr {
namespace {

std::string temp_path(const std::string& name) {
  // ctest -j runs every discovered test as its own process, each of which
  // re-runs SetUpTestSuite; a per-process suffix keeps them from racing on
  // shared file names.
  static const std::string suffix =
      "." + std::to_string(::getpid()) + ".dfrm";
  return (std::filesystem::temp_directory_path() / (name + suffix)).string();
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ModelIoRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new DatasetPair(generate_toy_task(2, 1, 30, 10, 6, 0.5, 11));
    standardize_pair(*pair_);
    TrainerConfig config;
    config.nodes = 8;
    config.epochs = 4;  // a tiny but genuine model; fidelity is what matters
    model_ = new TrainResult(Trainer(config).fit(pair_->train));
    path_ = temp_path("dfr_model_io_test");
    save_model(*model_, path_);
  }
  static void TearDownTestSuite() {
    std::remove(path_.c_str());
    delete pair_;
    delete model_;
    pair_ = nullptr;
    model_ = nullptr;
  }
  static DatasetPair* pair_;
  static TrainResult* model_;
  static std::string path_;
};

DatasetPair* ModelIoRoundTrip::pair_ = nullptr;
TrainResult* ModelIoRoundTrip::model_ = nullptr;
std::string ModelIoRoundTrip::path_;

TEST_F(ModelIoRoundTrip, FieldsSurviveRoundTrip) {
  const LoadedModel loaded = load_model(path_);
  EXPECT_DOUBLE_EQ(loaded.params.a, model_->params.a);
  EXPECT_DOUBLE_EQ(loaded.params.b, model_->params.b);
  EXPECT_DOUBLE_EQ(loaded.chosen_beta, model_->chosen_beta);
  EXPECT_EQ(loaded.nonlinearity.kind(), model_->nonlinearity.kind());
  EXPECT_DOUBLE_EQ(loaded.nonlinearity.mg_exponent(),
                   model_->nonlinearity.mg_exponent());
  EXPECT_TRUE(loaded.mask.weights() == model_->mask.weights());
  EXPECT_TRUE(loaded.readout.weights() == model_->readout.weights());
  EXPECT_EQ(loaded.readout.bias(), model_->readout.bias());
}

TEST_F(ModelIoRoundTrip, PredictionsSurviveRoundTrip) {
  const LoadedModel loaded = load_model(path_);
  const std::vector<int> reference = predict(*model_, pair_->test);
  // The scalar engine: the reference predictions come from the scalar
  // training-side pipeline, and this test asserts exact round-trip equality,
  // not the SIMD ULP contract (test_simd.cpp owns that).
  InferenceEngine engine = make_engine(loaded);
  for (std::size_t i = 0; i < pair_->test.size(); ++i) {
    EXPECT_EQ(engine.classify(pair_->test[i].series), reference[i]) << i;
  }
}

TEST_F(ModelIoRoundTrip, SecondSaveIsByteIdentical) {
  const std::string copy = temp_path("dfr_model_io_copy");
  save_model(*model_, copy);
  EXPECT_EQ(read_bytes(path_), read_bytes(copy));
  std::remove(copy.c_str());
}

TEST_F(ModelIoRoundTrip, TruncationAtEveryGranularityThrows) {
  const std::vector<char> bytes = read_bytes(path_);
  ASSERT_GT(bytes.size(), 16u);
  const std::string mutated = temp_path("dfr_model_io_truncated");
  // Chop at a spread of prefix lengths covering every section of the format:
  // magic, header scalars, mask header, mask payload, readout, bias.
  for (const double fraction : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * fraction);
    write_bytes(mutated,
                std::vector<char>(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep)));
    EXPECT_THROW(load_model(mutated), CheckError) << "prefix " << keep;
  }
  // Truncating inside the trailing bias payload must also be caught.
  write_bytes(mutated, std::vector<char>(bytes.begin(), bytes.end() - 3));
  EXPECT_THROW(load_model(mutated), CheckError);
  std::remove(mutated.c_str());
}

TEST_F(ModelIoRoundTrip, CorruptMagicThrows) {
  std::vector<char> bytes = read_bytes(path_);
  bytes[0] = 'X';
  const std::string mutated = temp_path("dfr_model_io_badmagic");
  write_bytes(mutated, bytes);
  EXPECT_THROW(load_model(mutated), CheckError);
  std::remove(mutated.c_str());
}

TEST_F(ModelIoRoundTrip, UnsupportedVersionThrows) {
  std::vector<char> bytes = read_bytes(path_);
  const std::uint32_t bogus = 999;
  std::memcpy(bytes.data() + 4, &bogus, sizeof(bogus));
  const std::string mutated = temp_path("dfr_model_io_badversion");
  write_bytes(mutated, bytes);
  EXPECT_THROW(load_model(mutated), CheckError);
  std::remove(mutated.c_str());
}

TEST_F(ModelIoRoundTrip, ZeroDimensionMatrixHeaderThrows) {
  std::vector<char> bytes = read_bytes(path_);
  // In the (default) v2 header mask_rows sits at offset 48
  // (dfr/dfrm_format.hpp); zeroing from offset 44 clears its low half, which
  // collapses the small true row count to zero.
  const std::uint64_t zero_rows = 0;
  std::memcpy(bytes.data() + 44, &zero_rows, sizeof(zero_rows));
  const std::string mutated = temp_path("dfr_model_io_zerodim");
  write_bytes(mutated, bytes);
  EXPECT_THROW(load_model(mutated), CheckError);
  std::remove(mutated.c_str());
}

// ---- v1 backward compatibility --------------------------------------------

TEST_F(ModelIoRoundTrip, V1FormatRoundTripsIdentically) {
  // Legacy stream-packed v1 files still write and load: same fields, same
  // weight bits as the v2 default.
  const std::string v1_path = temp_path("dfr_model_io_v1");
  save_model(*model_, v1_path, 1);
  const LoadedModel from_v1 = load_model(v1_path);
  const LoadedModel from_v2 = load_model(path_);
  EXPECT_DOUBLE_EQ(from_v1.params.a, from_v2.params.a);
  EXPECT_DOUBLE_EQ(from_v1.params.b, from_v2.params.b);
  EXPECT_DOUBLE_EQ(from_v1.chosen_beta, from_v2.chosen_beta);
  EXPECT_EQ(from_v1.nonlinearity.kind(), from_v2.nonlinearity.kind());
  EXPECT_TRUE(from_v1.mask.weights() == from_v2.mask.weights());
  EXPECT_TRUE(from_v1.readout.weights() == from_v2.readout.weights());
  EXPECT_EQ(from_v1.readout.bias(), from_v2.readout.bias());
  std::remove(v1_path.c_str());
}

TEST_F(ModelIoRoundTrip, V2SectionsAre64ByteAligned) {
  const std::vector<char> bytes = read_bytes(path_);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  ASSERT_EQ(version, 2u);
  // Offsets live at fixed header positions: mask at 64, readout at 88,
  // bias at 104 (dfr/dfrm_format.hpp) — all must be 64-byte aligned so the
  // mmap loader can hand out aligned borrowed views.
  for (const std::size_t field_offset : {64u, 88u, 104u}) {
    std::uint64_t section = 0;
    std::memcpy(&section, bytes.data() + field_offset, sizeof(section));
    EXPECT_EQ(section % 64, 0u) << "offset field at byte " << field_offset;
  }
}

TEST_F(ModelIoRoundTrip, UnknownSaveVersionThrows) {
  EXPECT_THROW(save_model(*model_, temp_path("dfr_model_io_badver"), 3),
               CheckError);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(load_model(temp_path("dfr_model_io_does_not_exist")),
               CheckError);
}

TEST(ModelIo, EmptyFileThrows) {
  const std::string path = temp_path("dfr_model_io_empty");
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_THROW(load_model(path), CheckError);
  std::remove(path.c_str());
}

TEST_F(ModelIoRoundTrip, UnwritablePathThrows) {
  EXPECT_THROW(save_model(*model_, "/nonexistent_dir_xyz/model.dfrm"),
               CheckError);
}

}  // namespace
}  // namespace dfr
