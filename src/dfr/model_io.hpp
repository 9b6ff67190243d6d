#pragma once
// Trained-model serialization (.dfrm) and model ownership.
//
// Ownership model
// ---------------
// `ModelArtifact` is the unit of ownership for a deployed model: one
// immutable bundle of everything inference needs (reservoir parameters,
// mask, nonlinearity, readout, chosen beta) plus a serving name/id. It is
// always handled through `ModelArtifactPtr` (a `shared_ptr<const
// ModelArtifact>`): engines, datapaths, the model registry, and in-flight
// requests each hold a reference, so an artifact stays alive exactly as
// long as anything still serves from it and is freed when the last user
// drops it. Because the pointee is const, an artifact can be shared across
// any number of threads without synchronization — hot-swapping a model
// (serve/registry.hpp) publishes a NEW artifact under the same name while
// requests already routed to the old one finish against it safely.
//
// `LoadedModel` remains as a thin mutable convenience wrapper (aggregate
// fields, build-and-tweak friendly: tests and benches assemble models
// field by field). It does NOT participate in shared ownership; call
// `artifact()` to snapshot it into an immutable `ModelArtifact` for
// serving. Engines built from a `LoadedModel` snapshot it internally, so
// they never dangle even if the `LoadedModel` goes out of scope.

#include <cstdint>
#include <memory>
#include <string>

#include "dfr/trainer.hpp"

namespace dfr {

class QuantizedDfr;  // fixedpoint/quantized_dfr.hpp (includes this header)

/// Serialize a trained model. `format_version` selects the .dfrm container
/// layout (dfr/dfrm_format.hpp): 2 (default) writes the 64-byte-aligned
/// mmap-friendly layout consumed zero-copy by serve/artifact_store.hpp;
/// 1 writes the legacy stream-packed layout for interop with old readers.
/// Both versions load through every loader. Throws CheckError on I/O failure
/// or an unknown version.
void save_model(const TrainResult& model, const std::string& path,
                std::uint32_t format_version = 2);

/// Immutable deployed-model bundle; see the ownership model above. Only
/// created behind `ModelArtifactPtr` (make_artifact / load_artifact /
/// LoadedModel::artifact / with_quantized) and never mutated afterwards.
struct ModelArtifact {
  std::string name;  // serving id (registry key); may be empty outside serving
  DfrParams params;
  Mask mask;
  Nonlinearity nonlinearity{NonlinearityKind::kIdentity};
  OutputLayer readout{2, 1};
  double chosen_beta = 0.0;
  /// Optional calibrated fixed-point twin for quantized serving (null =
  /// float-only artifact). Attached by with_quantized(); the serving layer
  /// routes quantized requests (serve::EngineVariant::kQuantized) to it.
  std::shared_ptr<const QuantizedDfr> quantized;
  /// Keep-alive for zero-copy artifacts: when the mask/readout matrices
  /// borrow pages of an mmap'ed .dfrm v2 file (serve/artifact_store.hpp),
  /// this holds the refcounted mapping so the file stays mapped until the
  /// last artifact reference drops. Null for artifacts that own their
  /// weights. Copied along by with_quantized(), so derived artifacts keep
  /// the mapping alive too.
  std::shared_ptr<const void> backing;
};

using ModelArtifactPtr = std::shared_ptr<const ModelArtifact>;

/// Artifact from a fresh training run.
ModelArtifactPtr make_artifact(const TrainResult& model, std::string name = {});

/// Deserialize a .dfrm file straight into an immutable artifact.
/// Throws CheckError on malformed input.
ModelArtifactPtr load_artifact(const std::string& path, std::string name = {});

/// A copy of `artifact` carrying `quantized` as its calibrated fixed-point
/// twin, so the serving layer can route per-request quantized traffic to it.
/// Throws CheckError when either pointer is null or when the twin's wrapped
/// model does not match the artifact's shape (nodes/channels/classes).
ModelArtifactPtr with_quantized(const ModelArtifactPtr& artifact,
                                std::shared_ptr<const QuantizedDfr> quantized);

/// Inference-only view of a deserialized model. Mutable convenience type —
/// see the ownership model above for how it relates to ModelArtifact.
struct LoadedModel {
  DfrParams params;
  Mask mask;
  Nonlinearity nonlinearity{NonlinearityKind::kIdentity};
  OutputLayer readout{2, 1};
  double chosen_beta = 0.0;

  /// Immutable snapshot of the current fields (copies the weights). Later
  /// mutation of this LoadedModel does not affect the returned artifact.
  [[nodiscard]] ModelArtifactPtr artifact(std::string name = {}) const;

  /// Logits for one series (T x V): ONE reservoir run through the SIMD
  /// streaming engine (serve/engine.hpp) on simd::active_backend(), so the
  /// result is bit-identical to make_simd_engine(model). classify() and
  /// probabilities() both wrap this; callers wanting both should call
  /// infer() once and derive argmax / softmax themselves. For sustained
  /// serving construct an engine directly — it reuses its scratch across
  /// calls; this convenience path allocates fresh scratch per call.
  [[nodiscard]] Vector infer(const Matrix& series) const;

  /// Classify one series (T x V): argmax of infer().
  [[nodiscard]] int classify(const Matrix& series) const;

  /// Class probabilities for one series: softmax of infer().
  [[nodiscard]] Vector probabilities(const Matrix& series) const;
};

LoadedModel load_model(const std::string& path);

}  // namespace dfr
