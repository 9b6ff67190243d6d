#include "serve/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace dfr {
namespace {

/// Shared-ownership constructors must fail with the subsystem's typed error
/// on a null handle (e.g. registry.get() of an evicted id passed straight
/// through), not dereference it.
ModelArtifactPtr checked_artifact(ModelArtifactPtr model) {
  DFR_CHECK_MSG(model != nullptr, "null model artifact");
  return model;
}

const QuantizedDfr& checked_deref(
    const std::shared_ptr<const QuantizedDfr>& model) {
  DFR_CHECK_MSG(model != nullptr, "null quantized model");
  return *model;
}

}  // namespace

// ---- FloatDatapath ---------------------------------------------------------

FloatDatapath::FloatDatapath(const Mask& mask, const DfrParams& params,
                             Nonlinearity f)
    : mask_(&mask), params_(params), reservoir_(mask.nodes(), f) {}

FloatDatapath::FloatDatapath(ModelArtifactPtr model)
    : artifact_(checked_artifact(std::move(model))),
      mask_(&artifact_->mask),
      params_(artifact_->params),
      reservoir_(artifact_->mask.nodes(), artifact_->nonlinearity),
      readout_(&artifact_->readout) {}

FloatDatapath::FloatDatapath(const LoadedModel& model)
    : FloatDatapath(model.artifact()) {}

void FloatDatapath::mask_into(std::span<const double> input,
                              std::span<double> j) const {
  mask_->apply_into(input, j);
}

void FloatDatapath::step(std::span<const double> j,
                         std::span<const double> x_prev,
                         std::span<double> x_out) const {
  reservoir_.step(params_, j, x_prev, x_out);
}

void FloatDatapath::finalize(std::span<double> r, std::size_t t_len) const {
  scale(r, dprr_time_scale(t_len));  // time-averaged DPRR (see dprr.hpp)
}

// ---- QuantizedDatapath -----------------------------------------------------

QuantizedDatapath::QuantizedDatapath(const QuantizedDfr& model)
    : mask_(&model.model().mask),
      params_(model.model().params),
      f_(model.model().nonlinearity),
      state_format_(model.config().state_format),
      feature_format_(model.config().feature_format),
      state_scale_(model.scales().state),
      feature_scale_(model.scales().feature),
      readout_(&model.quantized_readout()) {}

QuantizedDatapath::QuantizedDatapath(std::shared_ptr<const QuantizedDfr> model)
    : QuantizedDatapath(checked_deref(model)) {
  owner_ = std::move(model);
}

void QuantizedDatapath::mask_into(std::span<const double> input,
                                  std::span<double> j) const {
  mask_->apply_into(input, j);
  const double inv_state = 1.0 / state_scale_;
  for (double& v : j) v = state_format_.quantize(v * inv_state);
}

void QuantizedDatapath::step(std::span<const double> j,
                             std::span<const double> x_prev,
                             std::span<double> x_out) const {
  const std::size_t nx = x_prev.size();
  double prev_node = x_prev[nx - 1];  // x(k)_0 = x(k-1)_{Nx}
  for (std::size_t n = 0; n < nx; ++n) {
    const double s = state_format_.quantize(j[n] + x_prev[n]);
    const double value = params_.a * f_.value(s) + params_.b * prev_node;
    prev_node = state_format_.quantize(value);
    x_out[n] = prev_node;
  }
}

void QuantizedDatapath::finalize(std::span<double> r,
                                 std::size_t t_len) const {
  // Time-average (matches the trained readout) plus residual prescale.
  scale(r, dprr_time_scale(t_len) / feature_scale_);
  for (double& v : r) v = feature_format_.quantize(v);
}

// ---- SimdFloatDatapath -----------------------------------------------------

SimdFloatDatapath::SimdFloatDatapath(const Mask& mask, const DfrParams& params,
                                     Nonlinearity f, simd::Backend backend)
    : mask_(&mask), params_(params), f_(f),
      kernels_(&simd::kernels_for(backend)) {
  DFR_CHECK_MSG(mask.nodes() > 0, "reservoir needs at least one virtual node");
}

SimdFloatDatapath::SimdFloatDatapath(ModelArtifactPtr model,
                                     simd::Backend backend)
    : artifact_(checked_artifact(std::move(model))),
      mask_(&artifact_->mask),
      params_(artifact_->params),
      f_(artifact_->nonlinearity),
      kernels_(&simd::kernels_for(backend)),
      readout_(&artifact_->readout) {
  DFR_CHECK_MSG(artifact_->mask.nodes() > 0,
                "reservoir needs at least one virtual node");
}

SimdFloatDatapath::SimdFloatDatapath(const LoadedModel& model,
                                     simd::Backend backend)
    : SimdFloatDatapath(model.artifact(), backend) {}

void SimdFloatDatapath::mask_into(std::span<const double> input,
                                  std::span<double> j) const {
  mask_->apply_into(input, j);
}

void SimdFloatDatapath::step(std::span<const double> j,
                             std::span<const double> x_prev,
                             std::span<double> x_out) const {
  const std::size_t nx = x_prev.size();
  DFR_DCHECK(j.size() == nx && x_out.size() == nx);
  DFR_DCHECK(x_out.data() != x_prev.data() && x_out.data() != j.data());
  // Vectorized stage: x_out[n] = A * f~(j[n] + x_prev[n]).
  kernels_->preadd_nonlin(f_, params_.a, j.data(), x_prev.data(), x_out.data(),
                          nx);
  // Serialized B-chain, head continued from x(k-1)_{Nx}. Same operation
  // order as ModularReservoir::step (one multiply, one add per node), so the
  // step stage rounds identically to the scalar pipeline.
  double prev_node = x_prev[nx - 1];
  for (std::size_t n = 0; n < nx; ++n) {
    prev_node = x_out[n] + params_.b * prev_node;
    x_out[n] = prev_node;
  }
}

void SimdFloatDatapath::mask_soa(const double* u, double* j,
                                 std::size_t lanes) const {
  kernels_->batched_mask(mask_->weights().data(), nodes(), channels(), u, j,
                         lanes);
}

void SimdFloatDatapath::step_soa(const double* j, const double* x_prev,
                                 double* x_out, std::size_t lanes) const {
  const std::size_t nx = nodes();
  // The preadd is a pure per-element map, so running it over the whole SoA
  // block performs exactly step()'s operations per lane.
  kernels_->preadd_nonlin(f_, params_.a, j, x_prev, x_out, nx * lanes);
  // Each lane's chain continues from its own x(k-1)_{Nx}, the last row.
  kernels_->batched_bchain(params_.b, x_prev + (nx - 1) * lanes, x_out, nx,
                           lanes);
}

void SimdFloatDatapath::finalize(std::span<double> r, std::size_t t_len) const {
  scale(r, dprr_time_scale(t_len));  // time-averaged DPRR (see dprr.hpp)
}

// ---- SimdQuantizedDatapath -------------------------------------------------

SimdQuantizedDatapath::SimdQuantizedDatapath(const QuantizedDfr& model,
                                             simd::Backend backend)
    : mask_(&model.model().mask),
      params_(model.model().params),
      f_(model.model().nonlinearity),
      state_format_(model.config().state_format),
      feature_format_(model.config().feature_format),
      state_scale_(model.scales().state),
      feature_scale_(model.scales().feature),
      kernels_(&simd::kernels_for(backend)),
      readout_(&model.quantized_readout()) {
  DFR_CHECK_MSG(mask_->nodes() > 0, "reservoir needs at least one virtual node");
}

SimdQuantizedDatapath::SimdQuantizedDatapath(
    std::shared_ptr<const QuantizedDfr> model, simd::Backend backend)
    : SimdQuantizedDatapath(checked_deref(model), backend) {
  owner_ = std::move(model);
}

void SimdQuantizedDatapath::mask_into(std::span<const double> input,
                                      std::span<double> j) const {
  mask_->apply_into(input, j);
  // Same ops as the scalar path: v = Q_state(v * (1/state_scale)), fused
  // into one vectorized pass (scale_quantize is elementwise, so the pass
  // fusion cannot change per-element rounding).
  kernels_->scale_quantize(state_format_, 1.0 / state_scale_, j.data(),
                           j.size());
}

void SimdQuantizedDatapath::step(std::span<const double> j,
                                 std::span<const double> x_prev,
                                 std::span<double> x_out) const {
  const std::size_t nx = x_prev.size();
  DFR_DCHECK(j.size() == nx && x_out.size() == nx);
  DFR_DCHECK(x_out.data() != x_prev.data() && x_out.data() != j.data());
  // Vectorized stage: x_out[n] = A * f~( Q_state(j[n] + x_prev[n]) ).
  kernels_->quant_preadd_nonlin(f_, params_.a, state_format_, j.data(),
                                x_prev.data(), x_out.data(), nx);
  // Serialized quantized B-chain, head continued from x(k-1)_{Nx}. Same
  // operation order as QuantizedDatapath::step (one multiply, one add, one
  // round-to-format per node), so the stage rounds identically to the
  // scalar fixed-point pipeline.
  double prev_node = x_prev[nx - 1];
  for (std::size_t n = 0; n < nx; ++n) {
    const double value = x_out[n] + params_.b * prev_node;
    prev_node = state_format_.quantize(value);
    x_out[n] = prev_node;
  }
}

void SimdQuantizedDatapath::mask_soa(const double* u, double* j,
                                     std::size_t lanes) const {
  kernels_->batched_mask(mask_->weights().data(), nodes(), channels(), u, j,
                         lanes);
  // mask_into's per-element round-to-format, over the whole block.
  kernels_->scale_quantize(state_format_, 1.0 / state_scale_, j,
                           nodes() * lanes);
}

void SimdQuantizedDatapath::step_soa(const double* j, const double* x_prev,
                                     double* x_out, std::size_t lanes) const {
  const std::size_t nx = nodes();
  kernels_->quant_preadd_nonlin(f_, params_.a, state_format_, j, x_prev, x_out,
                                nx * lanes);
  kernels_->batched_quant_bchain(params_.b, state_format_,
                                 x_prev + (nx - 1) * lanes, x_out, nx, lanes);
}

void SimdQuantizedDatapath::finalize(std::span<double> r,
                                     std::size_t t_len) const {
  // Time-average plus residual prescale plus feature quantization — the
  // same per-element ops as QuantizedDatapath::finalize, one fused pass.
  kernels_->scale_quantize(feature_format_,
                           dprr_time_scale(t_len) / feature_scale_, r.data(),
                           r.size());
}

// ---- BatchedScratch --------------------------------------------------------

template <typename P>
BatchedScratch<P>::BatchedScratch(std::size_t max_lanes)
    : max_lanes_(max_lanes) {
  DFR_CHECK_MSG(max_lanes_ >= 1, "batched engine needs at least one lane");
  DFR_CHECK_MSG(max_lanes_ <= simd::kBatchedMaxLanes,
                "batched engine lane count exceeds kBatchedMaxLanes");
}

template <typename P>
void BatchedScratch<P>::infer(const P& datapath,
                              std::span<const Matrix* const> series) {
  const std::size_t n = series.size();
  DFR_CHECK_MSG(n >= 1, "batched infer needs at least one lane");
  DFR_CHECK_MSG(n <= max_lanes_,
                "batch size exceeds the engine's lane count");
  for (const Matrix* s : series) {
    DFR_CHECK_MSG(s != nullptr, "null series in batch");
    DFR_CHECK_MSG(s->rows() == series[0]->rows() &&
                      s->cols() == series[0]->cols(),
                  "batched lanes must share one series shape");
  }
  DFR_CHECK_MSG(series[0]->cols() == datapath.channels(),
                "series channel count != mask width");
  DFR_CHECK_MSG(series[0]->rows() >= 1, "series needs at least one time step");
  const OutputLayer* out = datapath.readout();
  DFR_CHECK_MSG(out != nullptr, "batched datapath has no readout");

  const std::size_t nx = datapath.nodes();
  const std::size_t t_len = series[0]->rows();
  dim_ = dprr_dim(nx);
  classes_ = static_cast<std::size_t>(out->num_classes());
  batch_size_ = n;
  step_.resize(nx, datapath.channels(), max_lanes_);
  r_.resize(dim_ * max_lanes_);
  logits_.resize(classes_ * max_lanes_);
  labels_.resize(max_lanes_);

  step_.start(n, datapath.dprr_lanes());  // x(0) = 0, r = 0
  for (std::size_t k = 0; k < t_len; ++k) step_.advance(datapath, series, k);
  for (std::size_t l = 0; l < n; ++l) step_.read_dprr(l, r_.data() + l * dim_);
  datapath.finalize(std::span<double>(r_.data(), dim_ * n), t_len);

  for (std::size_t l = 0; l < n; ++l) {
    const std::span<double> lane(logits_.data() + l * classes_, classes_);
    out->logits_into(std::span<const double>(r_.data() + l * dim_, dim_), lane);
    labels_[l] = static_cast<int>(
        std::max_element(lane.begin(), lane.end()) - lane.begin());
  }
}

template <typename P>
std::span<const double> BatchedScratch<P>::lane_logits(std::size_t lane) const {
  DFR_CHECK_MSG(lane < batch_size_, "lane index beyond the last batch size");
  return std::span<const double>(logits_.data() + lane * classes_, classes_);
}

template <typename P>
int BatchedScratch<P>::lane_label(std::size_t lane) const {
  DFR_CHECK_MSG(lane < batch_size_, "lane index beyond the last batch size");
  return labels_[lane];
}

template <typename P>
std::span<const double> BatchedScratch<P>::lane_features(
    std::size_t lane) const {
  DFR_CHECK_MSG(lane < batch_size_, "lane index beyond the last batch size");
  return std::span<const double>(r_.data() + lane * dim_, dim_);
}

template class BatchedScratch<SimdFloatDatapath>;
template class BatchedScratch<SimdQuantizedDatapath>;

BatchedInferenceEngine make_batched_engine(ModelArtifactPtr model,
                                           std::size_t max_lanes,
                                           simd::Backend backend) {
  return BatchedInferenceEngine(SimdFloatDatapath(std::move(model), backend),
                                max_lanes);
}

BatchedQuantizedInferenceEngine make_batched_engine(
    std::shared_ptr<const QuantizedDfr> model, std::size_t max_lanes,
    simd::Backend backend) {
  return BatchedQuantizedInferenceEngine(
      SimdQuantizedDatapath(std::move(model), backend), max_lanes);
}

// ---- SeriesScratch / BasicEngine ------------------------------------------

template <InferenceDatapath P>
std::span<const double> SeriesScratch<P>::features(const P& datapath,
                                                   const Matrix& series) {
  DFR_CHECK_MSG(series.cols() == datapath.channels(),
                "series channel count != mask width");
  DFR_CHECK_MSG(series.rows() >= 1, "series needs at least one time step");
  const std::size_t nx = datapath.nodes();
  j_.resize(nx);
  r_.resize(dprr_dim(nx));
  dprr_.reset(nx, datapath.dprr_block());  // x(0) = 0
  for (std::size_t k = 0; k < series.rows(); ++k) {
    datapath.mask_into(series.row(k), j_);
    datapath.step(j_, dprr_.previous(), dprr_.next());
    dprr_.commit();
  }
  const Vector& dprr = dprr_.features();
  std::copy(dprr.begin(), dprr.end(), r_.begin());
  datapath.finalize(r_, series.rows());
  return r_;
}

template <InferenceDatapath P>
std::span<const double> SeriesScratch<P>::infer(const P& datapath,
                                                const Matrix& series) {
  const OutputLayer* out = datapath.readout();
  DFR_CHECK_MSG(out != nullptr, "features-only datapath has no readout");
  features(datapath, series);
  logits_.resize(static_cast<std::size_t>(out->num_classes()));
  out->logits_into(r_, logits_);
  return logits_;
}

template class SeriesScratch<FloatDatapath>;
template class SeriesScratch<QuantizedDatapath>;
template class SeriesScratch<SimdFloatDatapath>;
template class SeriesScratch<SimdQuantizedDatapath>;

template <InferenceDatapath P>
int BasicEngine<P>::classify(const Matrix& series) {
  const std::span<const double> logits = infer(series);
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                          logits.begin());
}

template <InferenceDatapath P>
Vector BasicEngine<P>::probabilities(const Matrix& series) {
  return softmax(infer(series));
}

template class BasicEngine<FloatDatapath>;
template class BasicEngine<QuantizedDatapath>;
template class BasicEngine<SimdFloatDatapath>;
template class BasicEngine<SimdQuantizedDatapath>;

// ---- batch serving ---------------------------------------------------------

InferenceEngine make_engine(const LoadedModel& model) {
  return InferenceEngine(FloatDatapath(model));
}

InferenceEngine make_engine(ModelArtifactPtr model) {
  return InferenceEngine(FloatDatapath(std::move(model)));
}

QuantizedInferenceEngine make_engine(const QuantizedDfr& model) {
  return QuantizedInferenceEngine(QuantizedDatapath(model));
}

QuantizedInferenceEngine make_engine(std::shared_ptr<const QuantizedDfr> model) {
  return QuantizedInferenceEngine(QuantizedDatapath(std::move(model)));
}

SimdInferenceEngine make_simd_engine(const LoadedModel& model,
                                     simd::Backend backend) {
  return SimdInferenceEngine(SimdFloatDatapath(model, backend));
}

SimdInferenceEngine make_simd_engine(ModelArtifactPtr model,
                                     simd::Backend backend) {
  return SimdInferenceEngine(SimdFloatDatapath(std::move(model), backend));
}

SimdQuantizedInferenceEngine make_simd_engine(const QuantizedDfr& model,
                                              simd::Backend backend) {
  return SimdQuantizedInferenceEngine(SimdQuantizedDatapath(model, backend));
}

SimdQuantizedInferenceEngine make_simd_engine(
    std::shared_ptr<const QuantizedDfr> model, simd::Backend backend) {
  return SimdQuantizedInferenceEngine(
      SimdQuantizedDatapath(std::move(model), backend));
}

namespace {

/// The one classify_batch body: `model` is an artifact or a calibrated
/// QuantizedDfr, and every worker engine is make_simd_engine(model) on the
/// backend resolved here, once, outside the workers.
template <typename Model, typename SeriesAt>
std::vector<int> classify_batch_impl(const Model& model, std::size_t n,
                                     unsigned threads,
                                     const SeriesAt& series_at) {
  const simd::Backend backend = simd::active_backend();
  std::vector<int> out(n);
  for_each_with_engine(
      n, threads, [&] { return make_simd_engine(model, backend); },
      [&](auto& engine, std::size_t i) {
        out[i] = engine.classify(series_at(i));
      });
  return out;
}

}  // namespace

std::vector<int> classify_batch(const ModelArtifactPtr& model,
                                std::span<const Matrix> series,
                                unsigned threads) {
  return classify_batch_impl(
      model, series.size(), threads,
      [&](std::size_t i) -> const Matrix& { return series[i]; });
}

std::vector<int> classify_batch(const LoadedModel& model,
                                std::span<const Matrix> series,
                                unsigned threads) {
  // Snapshot once; every worker engine shares the one immutable artifact.
  return classify_batch(model.artifact(), series, threads);
}

std::vector<int> classify_batch(const QuantizedDfr& model,
                                std::span<const Matrix> series,
                                unsigned threads) {
  return classify_batch_impl(
      model, series.size(), threads,
      [&](std::size_t i) -> const Matrix& { return series[i]; });
}

std::vector<int> classify_batch(const ModelArtifactPtr& model,
                                const Dataset& data, unsigned threads) {
  return classify_batch_impl(
      model, data.size(), threads,
      [&](std::size_t i) -> const Matrix& { return data[i].series; });
}

std::vector<int> classify_batch(const LoadedModel& model, const Dataset& data,
                                unsigned threads) {
  return classify_batch(model.artifact(), data, threads);
}

std::vector<int> classify_batch(const QuantizedDfr& model, const Dataset& data,
                                unsigned threads) {
  return classify_batch_impl(
      model, data.size(), threads,
      [&](std::size_t i) -> const Matrix& { return data[i].series; });
}

}  // namespace dfr
