#pragma once
// Multi-model serving: the model registry.
//
// ModelRegistry maps serving ids to immutable ModelArtifactPtr bundles
// (model_io.hpp). Registration under an existing id is an atomic hot-swap:
// readers observe either the old or the new artifact, never a torn state,
// and requests already routed to the old artifact finish against it safely
// because each holds a reference count on the artifact it resolved. Eviction
// removes the id; requests in flight again keep the artifact alive until
// they resolve, and nothing else does: the server holds a model only for the
// length of a request (serve/server.hpp), so no cache needs telling about an
// eviction.

#include <cstddef>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/engine.hpp"

namespace dfr::serve {

/// Transparent string hash so lookups by string_view never build a
/// temporary std::string.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Thread-safe id -> artifact map with atomic hot-swap semantics.
class ModelRegistry {
 public:
  /// Register (or atomically replace) `artifact` under `artifact->name`.
  /// Throws CheckError when the name is empty.
  void register_model(ModelArtifactPtr artifact);

  /// Load a .dfrm file and register it under `id`. Returns the artifact.
  ModelArtifactPtr load(std::string id, const std::string& path);

  /// Remove `id`. Returns false when it was not registered. Requests
  /// already routed to the artifact keep it alive until they resolve.
  bool evict(std::string_view id);

  /// The artifact currently serving `id`, or nullptr when unregistered.
  [[nodiscard]] ModelArtifactPtr get(std::string_view id) const;

  [[nodiscard]] std::vector<std::string> ids() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, ModelArtifactPtr, StringHash, std::equal_to<>>
      models_;
};

/// Which numeric family a request is served by: kFloat serves the
/// artifact's float weights, kQuantized its calibrated fixed-point twin
/// (ModelArtifact::quantized, attached via with_quantized). Both run the
/// SIMD datapaths on simd::active_backend() when the request runs, so the
/// kernels are the host's choice, not the request's: DFR_SIMD=scalar is how
/// a process serves scalar arithmetic.
enum class EngineVariant { kFloat, kQuantized };

/// The artifact's calibrated fixed-point twin, the model quantized serving
/// runs on. Throws CheckError when `artifact` is null or carries no twin
/// (the server maps that to kInvalidArgument).
[[nodiscard]] const std::shared_ptr<const QuantizedDfr>& quantized_twin(
    const ModelArtifactPtr& artifact);

}  // namespace dfr::serve
