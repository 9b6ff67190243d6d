#pragma once
// Deterministic synthetic serving models — the shared fixture for every part
// of the distributed tier that must agree on model weights WITHOUT shipping
// .dfrm files around: the shard binary's --synth-models mode, bench_loadgen,
// the distributed tests, and examples/distributed_serving.cpp all build the
// same artifacts from the same (name, spec) inputs, which is what lets a CI
// job launch two fresh shard processes and a load generator that agree on
// the fleet, and lets the bit-identity test compare a routed response
// against a local engine's logits.
//
// Determinism contract: same spec + same name/seed => bit-identical weights
// (and a bit-identical calibrated quantized twin) in every process on the
// same platform. Serving cost depends only on the shapes (T, V, Nx, Ny),
// never on weight values, so random weights measure exactly what trained
// weights would (same reasoning as bench_serving's make_serving_model).

#include <cstddef>
#include <cstdint>
#include <string>

#include "data/dataset.hpp"
#include "dfr/model_io.hpp"
#include "linalg/matrix.hpp"

namespace dfr::serve {

/// Shape + seed of one synthetic serving model.
struct SynthModelSpec {
  std::size_t channels = 2;   // series channels (V)
  int num_classes = 4;        // readout rows (Ny)
  std::size_t nodes = 30;     // virtual nodes (Nx, the paper's shape)
  std::uint64_t seed = 42;    // weight seed; vary per model id
  /// Attach a calibrated fixed-point twin so quantized traffic routes.
  bool quantized = true;
};

/// Deployment-shaped artifact with deterministic random weights (binary
/// mask, uniform readout) under `name`. With spec.quantized, the artifact
/// carries a QuantizedDfr twin calibrated on make_synth_dataset(spec, ...),
/// so EngineVariant::kQuantized requests resolve.
[[nodiscard]] ModelArtifactPtr make_synth_artifact(std::string name,
                                                   const SynthModelSpec& spec);

/// One deterministic T x V series (uniform in [-1, 1]) for request traffic.
[[nodiscard]] Matrix make_synth_series(std::size_t steps, std::size_t channels,
                                       std::uint64_t seed);

/// Labeled dataset of such series (labels round-robin the classes); used as
/// the quantization-calibration corpus and as loadgen/test traffic.
[[nodiscard]] Dataset make_synth_dataset(const SynthModelSpec& spec,
                                         std::size_t samples,
                                         std::size_t steps,
                                         std::uint64_t seed);

}  // namespace dfr::serve
