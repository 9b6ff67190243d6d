#pragma once
// Unified streaming inference engine — the single implementation behind every
// deployed datapath (float and fixed-point).
//
// The paper's O(Nx) streaming-inference claim rests on the DPRR accumulator
// form: classification needs only the current and previous reservoir state,
// never the full (T+1) x Nx trajectory. BasicEngine realizes exactly that
// pipeline —
//
//     j(k) = M u(k)  ->  x(k) = step(j(k), x(k-1))  ->  dprr += x(k) x(k-1)^T
//     ->  r = finalize(dprr)  ->  logits = W r + b  ->  argmax
//
// — over scratch buffers (the DprrAccumulator's state ring, which each
// reservoir step writes straight into, a masked-input row, a logits buffer)
// that hold no model: SeriesScratch takes the datapath to run on every call,
// so classify performs ZERO heap allocations in steady state
// (test_serve.cpp instruments operator new to enforce this), and one scratch
// serves any number of models.
//
// What varies between deployments is captured by a Datapath policy, four in
// all: two scalar references and one SIMD datapath per numeric family.
// FloatDatapath executes the exact double-precision arithmetic of the
// trained model; QuantizedDatapath executes the calibrated fixed-point
// arithmetic of quantized_dfr.hpp — both bit-identical to the per-series
// paths they replaced. SimdFloatDatapath runs the same float pipeline
// through runtime-dispatched vector kernels (serve/simd_kernels.hpp): the
// preadd/nonlinearity vectorizes, the serialized B-chain stays a scalar
// pass, and results match FloatDatapath within the documented ULP contract.
// SimdQuantizedDatapath does the same for the fixed-point pipeline —
// vectorized round-to-format on the masked input, quantized preadd +
// nonlinearity, and fused scale+quantize feature finalization — with a
// STRICTER contract: bit-identical to QuantizedDatapath on every backend
// (fixed-point rounding is exact; see the quantized contract in
// simd_kernels.hpp). Every datapath accumulates the DPRR through the same
// time-blocked kernel; a policy only names its rounding and backend through
// dprr_block() (the SIMD datapaths state theirs once, kDprrRounding): FMA
// rounding for SimdFloatDatapath, exact for the others, so those three stay
// bit-identical to the DPRR definition.
//
// The two SIMD datapaths also run a step over many series at once, in
// structure-of-arrays form (mask_soa, step_soa): BatchedScratch serves a
// micro-batch through them on the lane set (serve/soa_step.hpp), one lane
// per request, whose DPRR kernel (dprr_lanes()) rounds each lane as the
// block kernel does, so a batched lane is bit-identical to the
// single-series pipeline over the same datapath.
//
// Scratch and model are separate objects. A datapath is the model: cheap to
// build, immutable, and the full-inference ones hold a reference-counted
// ModelArtifactPtr (see model_io.hpp), so the registry can hot-swap or evict
// an artifact while a call on the old one finishes safely. Constructing from
// a LoadedModel snapshots it into a fresh artifact; only the features-only
// constructors (batch feature extraction, where the trainer owns the
// weights) still borrow. A scratch is the mutable state of one call in
// flight and holds no model. BasicEngine and BatchedEngine pair one datapath
// with one scratch; a server worker keeps the scratch and builds each
// request's datapath on the stack (serve/server.hpp), so nothing pins a
// model past its request.
//
// Threading: one scratch serves one call at a time; datapaths are immutable
// and shareable, so batch serving makes one engine per worker.
// classify_batch does precisely that on top of util/parallel.hpp, with
// deterministic output ordering for any thread count.

#include <concepts>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dfr/dprr.hpp"
#include "dfr/model_io.hpp"
#include "dfr/reservoir.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "serve/simd_kernels.hpp"
#include "serve/soa_step.hpp"
#include "util/parallel.hpp"

namespace dfr {

/// What a datapath must provide for the shared streaming pipeline: the model
/// shape, the masked-input transform, one reservoir time step, the DPRR
/// block kernel (its rounding on its backend), the feature finalization
/// (time averaging plus any datapath-specific scaling / quantization), and
/// an optional readout (null = features-only).
template <typename P>
concept InferenceDatapath =
    requires(const P& p, std::span<const double> in, std::span<double> out,
             std::size_t t_len) {
      { p.nodes() } -> std::convertible_to<std::size_t>;
      { p.channels() } -> std::convertible_to<std::size_t>;
      { p.mask_into(in, out) };
      { p.step(in, in, out) };
      { p.dprr_block() } -> std::same_as<simd::DprrBlockFn>;
      { p.finalize(out, t_len) };
      { p.readout() } -> std::convertible_to<const OutputLayer*>;
    };

/// Double-precision datapath over a trained model. The artifact constructors
/// share ownership of the model (safe for any lifetime); the features-only
/// constructor borrows, and the mask must outlive the datapath.
class FloatDatapath {
 public:
  /// Features-only pipeline (no readout): the scalar reference the lockstep
  /// feature pass (dfr/backprop.hpp) is tested against. Borrows `mask`.
  FloatDatapath(const Mask& mask, const DfrParams& params, Nonlinearity f);

  /// Full inference pipeline sharing ownership of `model`.
  explicit FloatDatapath(ModelArtifactPtr model);

  /// Full inference pipeline over a loaded model (snapshots it into an
  /// owned artifact; the LoadedModel itself need not outlive the datapath).
  explicit FloatDatapath(const LoadedModel& model);

  [[nodiscard]] std::size_t nodes() const noexcept { return reservoir_.nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  void mask_into(std::span<const double> input, std::span<double> j) const;
  void step(std::span<const double> j, std::span<const double> x_prev,
            std::span<double> x_out) const;
  /// Exact rounding on the active backend.
  [[nodiscard]] simd::DprrBlockFn dprr_block() const {
    return simd::active_kernels().dprr_block_exact;
  }
  void finalize(std::span<double> r, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer* readout() const noexcept { return readout_; }
  /// The owned artifact (null for the borrowing features-only pipeline).
  [[nodiscard]] const ModelArtifactPtr& artifact() const noexcept {
    return artifact_;
  }

 private:
  ModelArtifactPtr artifact_;  // keepalive; null when borrowing
  const Mask* mask_;
  DfrParams params_;
  ModularReservoir reservoir_;
  const OutputLayer* readout_ = nullptr;
};

/// Calibrated fixed-point datapath: masked inputs and states quantized to the
/// state format at every step, features prescaled and quantized to the
/// feature format, readout already quantized by QuantizedDfr. The shared_ptr
/// constructor shares ownership; the reference constructor borrows and the
/// QuantizedDfr must outlive the datapath.
class QuantizedDatapath {
 public:
  explicit QuantizedDatapath(const QuantizedDfr& model);

  /// Shares ownership of `model` (the quantized analogue of ModelArtifact).
  explicit QuantizedDatapath(std::shared_ptr<const QuantizedDfr> model);

  [[nodiscard]] std::size_t nodes() const noexcept { return mask_->nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  void mask_into(std::span<const double> input, std::span<double> j) const;
  void step(std::span<const double> j, std::span<const double> x_prev,
            std::span<double> x_out) const;
  /// Exact rounding on the active backend.
  [[nodiscard]] simd::DprrBlockFn dprr_block() const {
    return simd::active_kernels().dprr_block_exact;
  }
  void finalize(std::span<double> r, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer* readout() const noexcept { return readout_; }

 private:
  std::shared_ptr<const QuantizedDfr> owner_;  // keepalive; null when borrowing
  const Mask* mask_;
  DfrParams params_;
  Nonlinearity f_;
  FixedPointFormat state_format_;
  FixedPointFormat feature_format_;
  double state_scale_ = 1.0;    // states divided by this (power of two)
  double feature_scale_ = 1.0;  // residual feature prescaler (power of two)
  const OutputLayer* readout_;
};

/// Float datapath over runtime-dispatched SIMD kernels, for one series at a
/// time (SeriesScratch) and for up to simd::kBatchedMaxLanes series in
/// lockstep (BatchedScratch, ForwardLanes). Executes the same pipeline as
/// FloatDatapath with the vectorizable stages (masked-input preadd,
/// nonlinearity) routed through serve/simd_kernels.hpp, the serialized
/// B-chain as a scalar pass, and the DPRR on its backend's FMA-rounded block
/// kernel (its lane twin in lockstep). The SoA stages (mask_soa, step_soa)
/// run the batched mask and B-chain kernels over blocks indexed
/// [node*lanes + lane]: every vector operation spans independent series, so
/// the B-chain vectorizes ACROSS series, and each lane rounds exactly like
/// step() (bit-identical states on x86-64; the batched contract of
/// simd_kernels.hpp).
/// Equivalence to FloatDatapath is governed by the ULP contract documented
/// in simd_kernels.hpp (bit-exact mask/preadd stages, simd_feature_ulp_bound
/// on finalized features). The artifact constructors share ownership of the
/// model; the features-only constructor borrows the mask.
class SimdFloatDatapath {
 public:
  /// The DPRR accumulate's rounding, the single-series ring's and the
  /// batched lanes' alike: FMA, the float family's one rounding.
  static constexpr DprrRounding kDprrRounding = DprrRounding::kFloat;

  /// Features-only pipeline on an explicit backend (kernels_for semantics:
  /// throws CheckError when unavailable). Borrows `mask`.
  SimdFloatDatapath(const Mask& mask, const DfrParams& params, Nonlinearity f,
                    simd::Backend backend);

  /// Full inference pipeline sharing ownership of `model`. The default
  /// backend is simd::active_backend(), i.e. best available unless DFR_SIMD
  /// / force_backend overrode it; an explicit one follows kernels_for
  /// semantics (throws CheckError when unavailable).
  explicit SimdFloatDatapath(ModelArtifactPtr model,
                             simd::Backend backend = simd::active_backend());

  /// Full inference pipeline over a loaded model (snapshots `model` into an
  /// owned artifact).
  explicit SimdFloatDatapath(const LoadedModel& model,
                             simd::Backend backend = simd::active_backend());

  [[nodiscard]] std::size_t nodes() const noexcept { return mask_->nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  void mask_into(std::span<const double> input, std::span<double> j) const;
  void step(std::span<const double> j, std::span<const double> x_prev,
            std::span<double> x_out) const;
  /// Input mask over one time step's SoA input block (`u[v*lanes + l]` =
  /// lane l's channel v): j[i*lanes + l] accumulates in the scalar dot()
  /// order per lane, so the stage is bit-identical to mask_into per lane.
  void mask_soa(const double* u, double* j, std::size_t lanes) const;
  /// step() over SoA blocks of `lanes` series: the preadd + nonlinearity
  /// over all nodes()*lanes values, then the cross-lane B-chain.
  void step_soa(const double* j, const double* x_prev, double* x_out,
                std::size_t lanes) const;
  /// The block kernel of kDprrRounding on backend().
  [[nodiscard]] simd::DprrBlockFn dprr_block() const noexcept {
    return kernels_->dprr_block;
  }
  /// Its twin over lanes, for the lane set (serve/soa_step.hpp).
  [[nodiscard]] simd::DprrLanesFn dprr_lanes() const noexcept {
    return kernels_->dprr_lanes;
  }
  /// Time-averages any number of whole DPRR vectors laid end to end.
  void finalize(std::span<double> r, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer* readout() const noexcept { return readout_; }
  /// The owned artifact (null for the borrowing features-only pipeline).
  [[nodiscard]] const ModelArtifactPtr& artifact() const noexcept {
    return artifact_;
  }

 private:
  ModelArtifactPtr artifact_;  // keepalive; null when borrowing
  const Mask* mask_;
  DfrParams params_;
  Nonlinearity f_;
  const simd::Kernels* kernels_;
  const OutputLayer* readout_ = nullptr;
};

/// Calibrated fixed-point datapath over runtime-dispatched SIMD kernels, for
/// one series (SeriesScratch) or a batch in lockstep (BatchedScratch).
/// Executes the same pipeline as QuantizedDatapath with the vectorizable
/// stages (masked-input round-to-format, quantized preadd + nonlinearity,
/// feature scale+quantize, and the exact DPRR block) routed through
/// serve/simd_kernels.hpp; the single-series quantized B-chain (which
/// serializes through the per-node round-to-format) stays a scalar pass, and
/// the SoA one vectorizes across lanes. Unlike the float ULP contract, every
/// stage is BIT-IDENTICAL to the scalar QuantizedDatapath on every backend,
/// batched lanes included (see the quantized contract in simd_kernels.hpp;
/// asserted EXPECT_EQ-strict by test_simd_quant.cpp and test_batched.cpp).
/// The shared_ptr constructors share ownership; the reference constructors
/// borrow and the QuantizedDfr must outlive the datapath.
class SimdQuantizedDatapath {
 public:
  /// The DPRR accumulate's rounding, the single-series ring's and the
  /// batched lanes' alike: exact (no FMA), like the scalar reference.
  static constexpr DprrRounding kDprrRounding = DprrRounding::kExact;

  /// Borrows `model`. The default backend is simd::active_backend(); an
  /// explicit one follows kernels_for semantics (throws CheckError when
  /// unavailable).
  explicit SimdQuantizedDatapath(
      const QuantizedDfr& model,
      simd::Backend backend = simd::active_backend());

  /// Shares ownership of `model`.
  explicit SimdQuantizedDatapath(
      std::shared_ptr<const QuantizedDfr> model,
      simd::Backend backend = simd::active_backend());

  [[nodiscard]] std::size_t nodes() const noexcept { return mask_->nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  void mask_into(std::span<const double> input, std::span<double> j) const;
  void step(std::span<const double> j, std::span<const double> x_prev,
            std::span<double> x_out) const;
  /// mask_into over an SoA input block (see SimdFloatDatapath::mask_soa):
  /// the batched mask, then the round-to-state-format over the block.
  void mask_soa(const double* u, double* j, std::size_t lanes) const;
  /// step() over SoA blocks of `lanes` series.
  void step_soa(const double* j, const double* x_prev, double* x_out,
                std::size_t lanes) const;
  /// The block kernel of kDprrRounding on backend().
  [[nodiscard]] simd::DprrBlockFn dprr_block() const noexcept {
    return kernels_->dprr_block_exact;
  }
  /// Its twin over lanes, for the lane set (serve/soa_step.hpp).
  [[nodiscard]] simd::DprrLanesFn dprr_lanes() const noexcept {
    return kernels_->dprr_lanes_exact;
  }
  /// Scales and quantizes any number of whole DPRR vectors laid end to end.
  void finalize(std::span<double> r, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer* readout() const noexcept { return readout_; }

 private:
  std::shared_ptr<const QuantizedDfr> owner_;  // keepalive; null when borrowing
  const Mask* mask_;
  DfrParams params_;
  Nonlinearity f_;
  FixedPointFormat state_format_;
  FixedPointFormat feature_format_;
  double state_scale_ = 1.0;    // states divided by this (power of two)
  double feature_scale_ = 1.0;  // residual feature prescaler (power of two)
  const simd::Kernels* kernels_;
  const OutputLayer* readout_;
};

/// The cross-request pipeline's mutable state for up to `max_lanes`
/// series in lockstep, one per lane, holding no model: every infer() takes
/// the SIMD datapath to run. The series run on the lane set
/// (serve/soa_step.hpp), whose DPRR kernel is the datapath's dprr_lanes():
/// it rounds each lane as the single-series ring's block kernel does, so
/// every lane is bit-identical to SeriesScratch over the same datapath.
/// Buffers (the lane set, the per-lane features and logits) are sized for
/// `max_lanes` from the datapath in hand and grow only past the largest
/// model served, so infer() performs zero heap allocations in steady state
/// whatever the batch size or model. Lanes are independent: lane l's
/// results depend only on series[l] (asserted by test_batched.cpp against
/// varying batchmates). Not thread-safe.
template <typename P>
class BatchedScratch {
 public:
  /// `max_lanes` in [1, simd::kBatchedMaxLanes]. Allocates nothing: the
  /// first infer() sizes the buffers.
  explicit BatchedScratch(std::size_t max_lanes);

  /// Run series[l] through lane l of `datapath`. All pointers must be
  /// non-null and every series must share one (rows, cols) shape with
  /// cols == channels() (the server's micro-batcher only coalesces
  /// same-shape requests). Throws CheckError otherwise. Results are read
  /// per lane via lane_logits/lane_label/lane_features and stay valid until
  /// the next infer() call.
  void infer(const P& datapath, std::span<const Matrix* const> series);

  /// Lane l's logits from the last infer() (lane < that call's batch size).
  [[nodiscard]] std::span<const double> lane_logits(std::size_t lane) const;

  /// Lane l's argmax label from the last infer().
  [[nodiscard]] int lane_label(std::size_t lane) const;

  /// Lane l's finalized feature vector from the last infer().
  [[nodiscard]] std::span<const double> lane_features(std::size_t lane) const;

  [[nodiscard]] std::size_t max_lanes() const noexcept { return max_lanes_; }

 private:
  std::size_t max_lanes_;
  std::size_t batch_size_ = 0;  // lanes used by the last infer()
  std::size_t dim_ = 0;         // the last infer()'s dprr_dim(Nx)
  std::size_t classes_ = 0;     // the last infer()'s Ny
  SoaStep step_;       // the lane set
  Vector r_;           // lane l's features at [l, l+1) * dim_
  Vector logits_;      // lane l's logits at [l, l+1) * classes_
  std::vector<int> labels_;  // per-lane argmax
};

/// Cross-request batched engine: one SIMD datapath paired with one
/// BatchedScratch, so it runs exactly what a server worker runs for a
/// micro-batch. One engine per worker; not thread-safe.
template <typename P>
class BatchedEngine {
 public:
  /// `max_lanes` in [1, simd::kBatchedMaxLanes].
  BatchedEngine(P datapath, std::size_t max_lanes)
      : datapath_(std::move(datapath)), scratch_(max_lanes) {}

  /// BatchedScratch::infer over this engine's datapath.
  void infer(std::span<const Matrix* const> series) {
    scratch_.infer(datapath_, series);
  }
  [[nodiscard]] std::span<const double> lane_logits(std::size_t lane) const {
    return scratch_.lane_logits(lane);
  }
  [[nodiscard]] int lane_label(std::size_t lane) const {
    return scratch_.lane_label(lane);
  }
  [[nodiscard]] std::span<const double> lane_features(std::size_t lane) const {
    return scratch_.lane_features(lane);
  }

  [[nodiscard]] std::size_t max_lanes() const noexcept {
    return scratch_.max_lanes();
  }
  [[nodiscard]] const P& datapath() const noexcept { return datapath_; }

 private:
  P datapath_;
  BatchedScratch<P> scratch_;
};

using BatchedInferenceEngine = BatchedEngine<SimdFloatDatapath>;
using BatchedQuantizedInferenceEngine = BatchedEngine<SimdQuantizedDatapath>;

extern template class BatchedScratch<SimdFloatDatapath>;
extern template class BatchedScratch<SimdQuantizedDatapath>;

/// Batched float engine sharing ownership of an immutable artifact, on the
/// active backend (or an explicit one; throws CheckError when unavailable).
[[nodiscard]] BatchedInferenceEngine make_batched_engine(
    ModelArtifactPtr model, std::size_t max_lanes,
    simd::Backend backend = simd::active_backend());

/// Batched quantized engine sharing ownership of a calibrated model.
/// Bit-identical per-lane results to the scalar QuantizedDatapath.
[[nodiscard]] BatchedQuantizedInferenceEngine make_batched_engine(
    std::shared_ptr<const QuantizedDfr> model, std::size_t max_lanes,
    simd::Backend backend = simd::active_backend());

/// The streaming pipeline's mutable state for one series at a time: the
/// DPRR accumulator (whose ring each step writes into), the masked-input
/// row, the finalized features and the logits. It holds no model: every
/// call takes the datapath to run and sizes the buffers from it, growing
/// them only past the largest model served, so one scratch serves any
/// number of models and allocates nothing once it has served the largest.
/// Not thread-safe.
template <InferenceDatapath P>
class SeriesScratch {
 public:
  /// Finalized feature vector (DPRR, time-averaged, datapath-scaled) of one
  /// series (T x V) through `datapath`. The span aliases the scratch: valid
  /// until the next call.
  std::span<const double> features(const P& datapath, const Matrix& series);

  /// Logits of one series through `datapath`; throws CheckError for a
  /// features-only datapath. The span aliases the scratch.
  std::span<const double> infer(const P& datapath, const Matrix& series);

 private:
  Vector j_;       // masked input row, size Nx
  Vector r_;       // finalized features, size Nx*(Nx+1)
  Vector logits_;  // size Ny
  DprrAccumulator dprr_;  // owns the state ring each step writes into
};

/// The streaming engine: one datapath paired with one SeriesScratch, so it
/// runs exactly what a server worker runs for a request. Classifies with
/// zero steady-state heap allocations. One engine per stream/worker; not
/// thread-safe.
template <InferenceDatapath P>
class BasicEngine {
 public:
  explicit BasicEngine(P datapath) : datapath_(std::move(datapath)) {}

  /// Finalized feature vector (DPRR, time-averaged, datapath-scaled) for one
  /// series (T x V). The span aliases engine scratch: valid until the next
  /// call on this engine.
  std::span<const double> features(const Matrix& series) {
    return scratch_.features(datapath_, series);
  }

  /// Logits for one series. Span aliases engine scratch.
  std::span<const double> infer(const Matrix& series) {
    return scratch_.infer(datapath_, series);
  }

  /// Argmax class for one series. Zero heap allocations.
  int classify(const Matrix& series);

  /// Softmax class probabilities (allocates the returned vector).
  Vector probabilities(const Matrix& series);

  [[nodiscard]] const P& datapath() const noexcept { return datapath_; }

 private:
  P datapath_;
  SeriesScratch<P> scratch_;
};

using InferenceEngine = BasicEngine<FloatDatapath>;
using QuantizedInferenceEngine = BasicEngine<QuantizedDatapath>;
using SimdInferenceEngine = BasicEngine<SimdFloatDatapath>;
using SimdQuantizedInferenceEngine = BasicEngine<SimdQuantizedDatapath>;

extern template class SeriesScratch<FloatDatapath>;
extern template class SeriesScratch<QuantizedDatapath>;
extern template class SeriesScratch<SimdFloatDatapath>;
extern template class SeriesScratch<SimdQuantizedDatapath>;
extern template class BasicEngine<FloatDatapath>;
extern template class BasicEngine<QuantizedDatapath>;
extern template class BasicEngine<SimdFloatDatapath>;
extern template class BasicEngine<SimdQuantizedDatapath>;

/// Engine over a loaded float model (snapshots the model into an owned
/// artifact — safe for any model lifetime).
[[nodiscard]] InferenceEngine make_engine(const LoadedModel& model);

/// Engine sharing ownership of an immutable artifact.
[[nodiscard]] InferenceEngine make_engine(ModelArtifactPtr model);

/// Engine over a calibrated quantized model (model must outlive the engine).
[[nodiscard]] QuantizedInferenceEngine make_engine(const QuantizedDfr& model);

/// Engine sharing ownership of a calibrated quantized model.
[[nodiscard]] QuantizedInferenceEngine make_engine(
    std::shared_ptr<const QuantizedDfr> model);

/// SIMD engine over a loaded float model (snapshots the model into an owned
/// artifact). Every make_simd_engine runs on the active backend by default;
/// an explicit backend throws CheckError when unavailable.
[[nodiscard]] SimdInferenceEngine make_simd_engine(
    const LoadedModel& model, simd::Backend backend = simd::active_backend());

/// SIMD engine sharing ownership of an immutable artifact.
[[nodiscard]] SimdInferenceEngine make_simd_engine(
    ModelArtifactPtr model, simd::Backend backend = simd::active_backend());

/// SIMD quantized engine over a calibrated model (model must outlive the
/// engine). Bit-identical results to make_engine(model) — the quantized
/// SIMD contract.
[[nodiscard]] SimdQuantizedInferenceEngine make_simd_engine(
    const QuantizedDfr& model, simd::Backend backend = simd::active_backend());

/// SIMD quantized engine sharing ownership of a calibrated model.
[[nodiscard]] SimdQuantizedInferenceEngine make_simd_engine(
    std::shared_ptr<const QuantizedDfr> model,
    simd::Backend backend = simd::active_backend());

/// Chunked per-worker-engine fan-out shared by classify_batch and the batch
/// feature extractor: runs body(engine, i) once for every i in [0, n), with
/// one engine constructed per contiguous chunk so scratch is reused across a
/// chunk's series. A serial call (threads = 1, or from inside a pool body,
/// where parallel_for runs serially anyway) is one chunk, so it builds one
/// engine. Because each body invocation depends only on index i (the
/// engine's scratch carries no state across calls), results are bit-identical
/// for any `threads` value (0 = all cores, 1 = serial — the
/// util/parallel.hpp convention).
template <typename MakeEngine, typename Body>
void for_each_with_engine(std::size_t n, unsigned threads,
                          const MakeEngine& make_engine_fn, const Body& body) {
  if (n == 0) return;
  const std::size_t slots = threads == 0 ? hardware_threads() : threads;
  const std::size_t chunks =
      slots == 1 || inside_parallel_region()
          ? 1
          : std::min(n, slots * 4);  // mild oversubscription
  parallel_for(
      chunks,
      [&](std::size_t c) {
        auto engine = make_engine_fn();
        const std::size_t lo = c * n / chunks;
        const std::size_t hi = (c + 1) * n / chunks;
        for (std::size_t i = lo; i < hi; ++i) body(engine, i);
      },
      {.threads = threads});
}

/// Classify a batch of series on the SIMD engines of simd::active_backend()
/// (resolved once per call). Workers each own one engine and a contiguous
/// chunk; out[i] depends only on series[i], so the result is bit-identical
/// to make_simd_engine(model).classify(series[i]) and identically ordered
/// for any `threads` value (0 = all cores, 1 = serial — the
/// util/parallel.hpp convention). The artifact overload shares one
/// immutable model across all worker engines; the LoadedModel overloads
/// snapshot the model once per call.
std::vector<int> classify_batch(const ModelArtifactPtr& model,
                                std::span<const Matrix> series,
                                unsigned threads = 0);
std::vector<int> classify_batch(const LoadedModel& model,
                                std::span<const Matrix> series,
                                unsigned threads = 0);
std::vector<int> classify_batch(const QuantizedDfr& model,
                                std::span<const Matrix> series,
                                unsigned threads = 0);

/// Dataset convenience overloads (classify every sample's series).
std::vector<int> classify_batch(const ModelArtifactPtr& model,
                                const Dataset& data, unsigned threads = 0);
std::vector<int> classify_batch(const LoadedModel& model, const Dataset& data,
                                unsigned threads = 0);
std::vector<int> classify_batch(const QuantizedDfr& model, const Dataset& data,
                                unsigned threads = 0);

}  // namespace dfr
