#include "dfr/model_io.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "dfr/dfrm_format.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"

namespace dfr {
namespace {

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void read_pod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  DFR_CHECK_MSG(static_cast<bool>(in), "unexpected end of model file");
}

void write_matrix(std::ofstream& out, const Matrix& m) {
  write_pod(out, static_cast<std::uint64_t>(m.rows()));
  write_pod(out, static_cast<std::uint64_t>(m.cols()));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(double)));
}

Matrix read_matrix(std::ifstream& in) {
  std::uint64_t rows = 0, cols = 0;
  read_pod(in, rows);
  read_pod(in, cols);
  DFR_CHECK_MSG(rows > 0 && cols > 0, "malformed matrix header");
  Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(double)));
  DFR_CHECK_MSG(static_cast<bool>(in), "truncated matrix data");
  return m;
}

/// Read the rest of a v1 stream (cursor just past magic+version).
void read_v1_payload(std::ifstream& in, ModelArtifact& model) {
  read_pod(in, model.params.a);
  read_pod(in, model.params.b);
  std::int32_t kind = 0;
  double mg_p = 1.0;
  read_pod(in, kind);
  read_pod(in, mg_p);
  read_pod(in, model.chosen_beta);
  model.nonlinearity = Nonlinearity(static_cast<NonlinearityKind>(kind), mg_p);
  model.mask = Mask(read_matrix(in));
  Matrix w = read_matrix(in);
  std::uint64_t bias_len = 0;
  read_pod(in, bias_len);
  Vector b(bias_len);
  in.read(reinterpret_cast<char*>(b.data()),
          static_cast<std::streamsize>(bias_len * sizeof(double)));
  DFR_CHECK_MSG(static_cast<bool>(in), "truncated bias data");
  model.readout = OutputLayer(std::move(w), std::move(b));
}

/// Read the rest of a v2 stream (cursor just past magic+version). This is
/// the copying reader; the zero-copy mmap path lives in
/// serve/artifact_store.cpp and validates the same header fields.
void read_v2_payload(std::ifstream& in, const std::string& path,
                     ModelArtifact& model) {
  dfrm::V2Header hdr{};
  in.seekg(0);
  in.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  DFR_CHECK_MSG(static_cast<bool>(in), "truncated DFRM v2 header: " + path);
  in.seekg(0, std::ios::end);
  const auto actual_size = static_cast<std::uint64_t>(in.tellg());
  DFR_CHECK_MSG(hdr.file_size == actual_size,
                "DFRM v2 size mismatch (truncated or trailing data): " + path);
  DFR_CHECK_MSG(hdr.mask_rows > 0 && hdr.mask_cols > 0 &&
                    hdr.readout_rows > 0 && hdr.readout_cols > 0,
                "malformed matrix header");
  // Per-dimension bound BEFORE any allocation: a crafted header cannot make
  // the reader allocate more than the file could hold, and it keeps the
  // rows*cols products below overflow for any real file size.
  const std::uint64_t max_doubles = hdr.file_size / sizeof(double);
  DFR_CHECK_MSG(hdr.mask_rows <= max_doubles && hdr.mask_cols <= max_doubles &&
                    hdr.readout_rows <= max_doubles &&
                    hdr.readout_cols <= max_doubles &&
                    hdr.bias_len <= max_doubles,
                "malformed matrix header");
  auto read_f64s = [&](std::uint64_t offset, std::uint64_t count, double* dst) {
    DFR_CHECK_MSG(offset % dfrm::kV2Align == 0,
                  "misaligned DFRM v2 section: " + path);
    DFR_CHECK_MSG(offset >= dfrm::kV2PayloadStart && offset <= hdr.file_size &&
                      count <= (hdr.file_size - offset) / sizeof(double),
                  "DFRM v2 section out of bounds: " + path);
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(dst),
            static_cast<std::streamsize>(count * sizeof(double)));
    DFR_CHECK_MSG(static_cast<bool>(in), "truncated DFRM v2 payload: " + path);
  };
  model.params.a = hdr.a;
  model.params.b = hdr.b;
  model.chosen_beta = hdr.chosen_beta;
  model.nonlinearity = Nonlinearity(
      static_cast<NonlinearityKind>(hdr.nonlin_kind), hdr.mg_exponent);
  Matrix mask(hdr.mask_rows, hdr.mask_cols);
  read_f64s(hdr.mask_offset, mask.size(), mask.data());
  model.mask = Mask(std::move(mask));
  Matrix w(hdr.readout_rows, hdr.readout_cols);
  read_f64s(hdr.readout_offset, w.size(), w.data());
  Vector b(hdr.bias_len);
  read_f64s(hdr.bias_offset, hdr.bias_len, b.data());
  model.readout = OutputLayer(std::move(w), std::move(b));
}

/// Deserialize the .dfrm payload into a (still mutable) artifact. Accepts
/// both container versions; this path always copies weights into owned
/// matrices.
ModelArtifact read_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DFR_CHECK_MSG(in.is_open(), "cannot open for reading: " + path);
  char magic[4];
  in.read(magic, 4);
  DFR_CHECK_MSG(in && std::equal(magic, magic + 4, dfrm::kMagic),
                "not a DFRM file: " + path);
  std::uint32_t version = 0;
  read_pod(in, version);
  ModelArtifact model;
  if (version == dfrm::kVersion1) {
    read_v1_payload(in, model);
  } else if (version == dfrm::kVersion2) {
    read_v2_payload(in, path, model);
  } else {
    DFR_CHECK_MSG(false, "unsupported DFRM version");
  }
  return model;
}

void save_model_v1(const TrainResult& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  DFR_CHECK_MSG(out.is_open(), "cannot open for writing: " + path);
  out.write(dfrm::kMagic, 4);
  write_pod(out, dfrm::kVersion1);
  write_pod(out, model.params.a);
  write_pod(out, model.params.b);
  write_pod(out, static_cast<std::int32_t>(model.nonlinearity.kind()));
  write_pod(out, model.nonlinearity.mg_exponent());
  write_pod(out, model.chosen_beta);
  write_matrix(out, model.mask.weights());
  write_matrix(out, model.readout.weights());
  write_pod(out, static_cast<std::uint64_t>(model.readout.bias().size()));
  out.write(reinterpret_cast<const char*>(model.readout.bias().data()),
            static_cast<std::streamsize>(model.readout.bias().size() *
                                         sizeof(double)));
  DFR_CHECK_MSG(static_cast<bool>(out), "write failure: " + path);
}

void save_model_v2(const TrainResult& model, const std::string& path) {
  const Matrix& mask = model.mask.weights();
  const Matrix& w = model.readout.weights();
  const Vector& b = model.readout.bias();

  dfrm::V2Header hdr{};
  std::copy(std::begin(dfrm::kMagic), std::end(dfrm::kMagic), hdr.magic);
  hdr.version = dfrm::kVersion2;
  hdr.a = model.params.a;
  hdr.b = model.params.b;
  hdr.nonlin_kind = static_cast<std::int32_t>(model.nonlinearity.kind());
  hdr.mg_exponent = model.nonlinearity.mg_exponent();
  hdr.chosen_beta = model.chosen_beta;
  hdr.mask_rows = mask.rows();
  hdr.mask_cols = mask.cols();
  hdr.readout_rows = w.rows();
  hdr.readout_cols = w.cols();
  hdr.bias_len = b.size();
  hdr.mask_offset = dfrm::kV2PayloadStart;
  hdr.readout_offset =
      dfrm::v2_align_up(hdr.mask_offset + mask.size() * sizeof(double));
  hdr.bias_offset =
      dfrm::v2_align_up(hdr.readout_offset + w.size() * sizeof(double));
  hdr.file_size = hdr.bias_offset + b.size() * sizeof(double);

  std::ofstream out(path, std::ios::binary);
  DFR_CHECK_MSG(out.is_open(), "cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  auto write_section = [&](std::uint64_t offset, const double* src,
                           std::uint64_t count) {
    // Zero-pad up to the aligned section start, then the raw payload.
    const auto pos = static_cast<std::uint64_t>(out.tellp());
    for (std::uint64_t i = pos; i < offset; ++i) out.put('\0');
    out.write(reinterpret_cast<const char*>(src),
              static_cast<std::streamsize>(count * sizeof(double)));
  };
  write_section(hdr.mask_offset, mask.data(), mask.size());
  write_section(hdr.readout_offset, w.data(), w.size());
  write_section(hdr.bias_offset, b.data(), b.size());
  DFR_CHECK_MSG(static_cast<bool>(out), "write failure: " + path);
}

}  // namespace

void save_model(const TrainResult& model, const std::string& path,
                std::uint32_t format_version) {
  if (format_version == dfrm::kVersion1) {
    save_model_v1(model, path);
  } else if (format_version == dfrm::kVersion2) {
    save_model_v2(model, path);
  } else {
    DFR_CHECK_MSG(false, "unsupported DFRM version");
  }
}

ModelArtifactPtr make_artifact(const TrainResult& model, std::string name) {
  return std::make_shared<const ModelArtifact>(ModelArtifact{
      std::move(name), model.params, model.mask, model.nonlinearity,
      model.readout, model.chosen_beta, /*quantized=*/nullptr,
      /*backing=*/nullptr});
}

ModelArtifactPtr load_artifact(const std::string& path, std::string name) {
  ModelArtifact model = read_artifact(path);
  model.name = std::move(name);
  return std::make_shared<const ModelArtifact>(std::move(model));
}

ModelArtifactPtr LoadedModel::artifact(std::string name) const {
  return std::make_shared<const ModelArtifact>(
      ModelArtifact{std::move(name), params, mask, nonlinearity, readout,
                    chosen_beta, /*quantized=*/nullptr, /*backing=*/nullptr});
}

ModelArtifactPtr with_quantized(const ModelArtifactPtr& artifact,
                                std::shared_ptr<const QuantizedDfr> quantized) {
  DFR_CHECK_MSG(artifact != nullptr, "null model artifact");
  DFR_CHECK_MSG(quantized != nullptr, "null quantized twin");
  const LoadedModel& wrapped = quantized->model();
  DFR_CHECK_MSG(wrapped.mask.nodes() == artifact->mask.nodes() &&
                    wrapped.mask.channels() == artifact->mask.channels() &&
                    wrapped.readout.num_classes() ==
                        artifact->readout.num_classes(),
                "quantized twin shape does not match the artifact");
  ModelArtifact copy = *artifact;
  copy.quantized = std::move(quantized);
  return std::make_shared<const ModelArtifact>(std::move(copy));
}

LoadedModel load_model(const std::string& path) {
  ModelArtifact model = read_artifact(path);
  return LoadedModel{model.params, std::move(model.mask), model.nonlinearity,
                     std::move(model.readout), model.chosen_beta};
}

Vector LoadedModel::infer(const Matrix& series) const {
  // Borrow *this through the features-only datapath (it outlives this call
  // by construction) rather than snapshotting an artifact: the convenience
  // path must not deep-copy the mask and readout per inference. The readout
  // applied here is the same logits_into arithmetic the full engines run.
  SimdInferenceEngine engine(
      SimdFloatDatapath(mask, params, nonlinearity, simd::active_backend()));
  return readout.logits(engine.features(series));
}

int LoadedModel::classify(const Matrix& series) const {
  const Vector z = infer(series);
  return static_cast<int>(std::max_element(z.begin(), z.end()) - z.begin());
}

Vector LoadedModel::probabilities(const Matrix& series) const {
  return softmax(infer(series));
}

}  // namespace dfr
