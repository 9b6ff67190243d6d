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
// — over per-engine scratch buffers (the DprrAccumulator's state ring, which
// each reservoir step writes straight into, a masked-input row, a logits
// buffer), so classify performs ZERO heap allocations in steady state
// (test_serve.cpp instruments operator new to enforce this).
//
// What varies between deployments is captured by a Datapath policy:
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
// make_accumulator(): FMA rounding for SimdFloatDatapath, exact for the
// others, so those three stay bit-identical to the DPRR definition.
//
// Ownership: the full-inference datapaths hold a reference-counted
// ModelArtifactPtr (see model_io.hpp), so an engine keeps its model alive
// for as long as the engine exists — the multi-model registry can hot-swap
// or evict an artifact while engines built on the old one keep serving it
// safely. Constructing from a LoadedModel snapshots it into a fresh
// artifact. Only the features-only constructors (batch feature extraction,
// where the trainer owns the weights) still borrow.
//
// Threading: one engine serves one stream; engines share the immutable model
// and are cheap to create, so batch serving makes one engine per worker.
// classify_batch does precisely that on top of util/parallel.hpp, with
// deterministic output ordering for any thread count.

#include <concepts>
#include <memory>
#include <span>
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
/// accumulator (its rounding and backend), the feature finalization (time
/// averaging plus any datapath-specific scaling / quantization), and an
/// optional readout (null = features-only).
template <typename P>
concept InferenceDatapath =
    requires(const P& p, std::span<const double> in, std::span<double> out,
             Vector& r, std::size_t t_len) {
      { p.nodes() } -> std::convertible_to<std::size_t>;
      { p.channels() } -> std::convertible_to<std::size_t>;
      { p.mask_into(in, out) };
      { p.step(in, in, out) };
      { p.make_accumulator() } -> std::same_as<DprrAccumulator>;
      { p.finalize(r, t_len) };
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
  [[nodiscard]] DprrAccumulator make_accumulator() const {
    return DprrAccumulator(nodes());
  }
  void finalize(Vector& r, std::size_t t_len) const;
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
  [[nodiscard]] DprrAccumulator make_accumulator() const {
    return DprrAccumulator(nodes());
  }
  void finalize(Vector& r, std::size_t t_len) const;
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

/// Float datapath over runtime-dispatched SIMD kernels. Executes the same
/// pipeline as FloatDatapath with the vectorizable stages (masked-input
/// preadd, nonlinearity) routed through serve/simd_kernels.hpp, the
/// serialized B-chain as a scalar pass, and the DPRR on its backend's
/// FMA-rounded block kernel.
/// Equivalence to FloatDatapath is governed by the ULP contract documented
/// in simd_kernels.hpp (bit-exact mask/preadd stages, simd_feature_ulp_bound
/// on finalized features). The artifact constructors share ownership of the
/// model; the features-only constructor borrows the mask.
class SimdFloatDatapath {
 public:
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
  /// FMA rounding (the float family's single rounding) on this backend.
  [[nodiscard]] DprrAccumulator make_accumulator() const {
    return DprrAccumulator(nodes(), DprrRounding::kFloat, backend());
  }
  void finalize(Vector& r, std::size_t t_len) const;
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

/// Calibrated fixed-point datapath over runtime-dispatched SIMD kernels.
/// Executes the same pipeline as QuantizedDatapath with the vectorizable
/// stages (masked-input round-to-format, quantized preadd + nonlinearity,
/// feature scale+quantize, and the exact DPRR block) routed through
/// serve/simd_kernels.hpp; the quantized B-chain (which serializes through
/// the per-node round-to-format) stays a scalar pass. Unlike the float ULP
/// contract, every stage is BIT-IDENTICAL to the scalar QuantizedDatapath
/// on every backend (see the quantized contract in simd_kernels.hpp;
/// asserted EXPECT_EQ-strict by test_simd_quant.cpp). The shared_ptr
/// constructors share ownership; the reference constructors borrow and the
/// QuantizedDfr must outlive the datapath.
class SimdQuantizedDatapath {
 public:
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
  /// Exact (no-FMA) rounding on this backend.
  [[nodiscard]] DprrAccumulator make_accumulator() const {
    return DprrAccumulator(nodes(), DprrRounding::kExact, backend());
  }
  void finalize(Vector& r, std::size_t t_len) const;
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

/// Batched (SoA) float datapath: the stage set BatchedEngine drives over up
/// to simd::kBatchedMaxLanes concurrent series transposed into
/// structure-of-arrays form (state buffers indexed [node*lanes + lane]).
/// Every vector operation spans independent lanes, so the B-chain that
/// serializes the single-series SIMD path vectorizes ACROSS requests and
/// lanes stay full at any Nx. Per-lane equivalence: bit-identical states to
/// FloatDatapath on x86-64 (the batched B-chain never uses FMA), finalized
/// features within simd_feature_ulp_bound of the scalar pipeline — the same
/// contract as SimdFloatDatapath, and bit-identical per lane to the
/// single-series SIMD engine (both FMA once per DPRR accumulate). Shares
/// ownership of the artifact.
class BatchedFloatDatapath {
 public:
  /// An explicit backend follows kernels_for semantics (throws when
  /// unavailable).
  explicit BatchedFloatDatapath(
      ModelArtifactPtr model, simd::Backend backend = simd::active_backend());

  /// Features-only stages (no readout): the lockstep training forward
  /// (dfr/backprop.hpp). Borrows `mask`.
  BatchedFloatDatapath(const Mask& mask, const DfrParams& params,
                       Nonlinearity f, simd::Backend backend);

  [[nodiscard]] std::size_t nodes() const noexcept { return mask_->nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  /// Batched input mask over one time step's SoA input block
  /// (`u[v*lanes + l]` = lane l's channel v): j[i*lanes + l] accumulates
  /// in the scalar dot() order per lane, so the stage is bit-identical to
  /// the unbatched mask on every backend.
  void mask_soa(const double* u, double* j, std::size_t lanes) const;
  /// Post-mask masked-input transform over the whole SoA block
  /// (`count` = nx*lanes). No-op for the float family.
  void quantize_masked(double* j, std::size_t count) const;
  /// Elementwise preadd + nonlinearity over the whole SoA block.
  void preadd(const double* j, const double* x_prev, double* x_out,
              std::size_t count) const;
  /// Cross-lane-vectorized B-chain (see BatchedBChainFn).
  void bchain(const double* head, double* x, std::size_t nx,
              std::size_t lanes) const;
  /// Batched DPRR accumulate into the SoA feature block.
  void dprr_add(double* r, const double* x_k, const double* x_km1,
                std::size_t nx, std::size_t lanes) const;
  /// Feature finalization over the whole SoA block (`count` =
  /// dprr_dim(nx)*lanes).
  void finalize(double* r, std::size_t count, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer* readout() const noexcept { return readout_; }
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

/// Batched (SoA) fixed-point datapath: the quantized twin of
/// BatchedFloatDatapath with the STRICT contract — every stage rounds
/// exactly like the scalar QuantizedDatapath per lane (no FMA anywhere), so
/// batched quantized lanes are BIT-IDENTICAL to the scalar pipeline on every
/// backend (asserted EXPECT_EQ-strict by test_batched.cpp). Shares ownership
/// of the calibrated model.
class BatchedQuantizedDatapath {
 public:
  /// An explicit backend follows kernels_for semantics (throws when
  /// unavailable).
  explicit BatchedQuantizedDatapath(
      std::shared_ptr<const QuantizedDfr> model,
      simd::Backend backend = simd::active_backend());

  [[nodiscard]] std::size_t nodes() const noexcept { return mask_->nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  void mask_soa(const double* u, double* j, std::size_t lanes) const;
  /// Vectorized round-to-state-format over the whole SoA block.
  void quantize_masked(double* j, std::size_t count) const;
  void preadd(const double* j, const double* x_prev, double* x_out,
              std::size_t count) const;
  void bchain(const double* head, double* x, std::size_t nx,
              std::size_t lanes) const;
  void dprr_add(double* r, const double* x_k, const double* x_km1,
                std::size_t nx, std::size_t lanes) const;
  void finalize(double* r, std::size_t count, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer* readout() const noexcept { return readout_; }

 private:
  std::shared_ptr<const QuantizedDfr> owner_;  // keepalive
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

/// Cross-request batched engine: runs one series per lane through the SoA
/// pipeline, up to `max_lanes` lanes per call. All scratch (SoA state
/// blocks, the DPRR block, per-lane logits) is preallocated for `max_lanes`
/// at construction, so infer() performs zero heap allocations in steady
/// state regardless of the batch size actually submitted. Lanes are
/// independent: lane l's results depend only on series[l] (asserted by
/// test_batched.cpp against varying batchmates). One engine per worker; not
/// thread-safe.
template <typename P>
class BatchedEngine {
 public:
  /// `max_lanes` in [1, simd::kBatchedMaxLanes].
  BatchedEngine(P datapath, std::size_t max_lanes);

  /// Run series[l] through lane l. All pointers must be non-null and every
  /// series must share one (rows, cols) shape with cols == channels()
  /// (the server's micro-batcher only coalesces same-shape requests).
  /// Throws CheckError otherwise. Results are read per lane via
  /// lane_logits/lane_label and stay valid until the next infer() call.
  void infer(std::span<const Matrix* const> series);

  /// Lane l's logits from the last infer() (lane < that call's batch size).
  [[nodiscard]] std::span<const double> lane_logits(std::size_t lane) const;

  /// Lane l's argmax label from the last infer().
  [[nodiscard]] int lane_label(std::size_t lane) const;

  /// Lane l's finalized feature vector, gathered from the SoA block into a
  /// shared scratch row: the span is invalidated by the next lane_features
  /// or infer call. Exposed for equivalence tests.
  [[nodiscard]] std::span<const double> lane_features(std::size_t lane);

  [[nodiscard]] std::size_t max_lanes() const noexcept { return max_lanes_; }
  [[nodiscard]] const P& datapath() const noexcept { return datapath_; }

 private:
  P datapath_;
  std::size_t max_lanes_;
  std::size_t batch_size_ = 0;  // lanes used by the last infer()
  SoaStep step_;       // SoA input, masked-input and state blocks
  Vector r_;           // SoA DPRR block, size dprr_dim(Nx)*max_lanes
  Vector feat_;        // per-lane gather row, size dprr_dim(Nx)
  Vector logits_;      // per-lane logits, size Ny*max_lanes
  std::vector<int> labels_;  // per-lane argmax, size max_lanes
};

using BatchedInferenceEngine = BatchedEngine<BatchedFloatDatapath>;
using BatchedQuantizedInferenceEngine = BatchedEngine<BatchedQuantizedDatapath>;

extern template class BatchedEngine<BatchedFloatDatapath>;
extern template class BatchedEngine<BatchedQuantizedDatapath>;

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

/// The streaming engine: owns all scratch, classifies with zero steady-state
/// heap allocations. One engine per stream/worker; not thread-safe.
template <InferenceDatapath P>
class BasicEngine {
 public:
  explicit BasicEngine(P datapath);

  /// Finalized feature vector (DPRR, time-averaged, datapath-scaled) for one
  /// series (T x V). The span aliases engine scratch: valid until the next
  /// call on this engine.
  std::span<const double> features(const Matrix& series);

  /// Logits for one series. Span aliases engine scratch.
  std::span<const double> infer(const Matrix& series);

  /// Argmax class for one series. Zero heap allocations.
  int classify(const Matrix& series);

  /// Softmax class probabilities (allocates the returned vector).
  Vector probabilities(const Matrix& series);

  [[nodiscard]] const P& datapath() const noexcept { return datapath_; }

 private:
  P datapath_;
  Vector j_;       // masked input row, size Nx
  Vector r_;       // finalized features, size Nx*(Nx+1)
  Vector logits_;  // size Ny (empty for features-only datapaths)
  DprrAccumulator dprr_;  // owns the state ring each step writes into
};

using InferenceEngine = BasicEngine<FloatDatapath>;
using QuantizedInferenceEngine = BasicEngine<QuantizedDatapath>;
using SimdInferenceEngine = BasicEngine<SimdFloatDatapath>;
using SimdQuantizedInferenceEngine = BasicEngine<SimdQuantizedDatapath>;

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
/// chunk's series. Because each body invocation depends only on index i (the
/// engine's scratch carries no state across calls), results are bit-identical
/// for any `threads` value (0 = all cores, 1 = serial — the
/// util/parallel.hpp convention).
template <typename MakeEngine, typename Body>
void for_each_with_engine(std::size_t n, unsigned threads,
                          const MakeEngine& make_engine_fn, const Body& body) {
  if (n == 0) return;
  const std::size_t slots = threads == 0 ? hardware_threads() : threads;
  const std::size_t chunks = std::min(n, slots * 4);  // mild oversubscription
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
