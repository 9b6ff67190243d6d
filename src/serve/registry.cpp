#include "serve/registry.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "util/check.hpp"

namespace dfr::serve {

// ---- ModelRegistry ---------------------------------------------------------

void ModelRegistry::register_model(ModelArtifactPtr artifact) {
  DFR_CHECK_MSG(artifact != nullptr, "cannot register a null artifact");
  DFR_CHECK_MSG(!artifact->name.empty(),
                "artifact needs a non-empty name to be registered");
  std::unique_lock lock(mutex_);
  models_.insert_or_assign(artifact->name, std::move(artifact));
}

ModelArtifactPtr ModelRegistry::load(std::string id, const std::string& path) {
  ModelArtifactPtr artifact = load_artifact(path, std::move(id));
  register_model(artifact);
  return artifact;
}

bool ModelRegistry::evict(std::string_view id) {
  std::unique_lock lock(mutex_);
  const auto it = models_.find(id);
  if (it == models_.end()) return false;
  models_.erase(it);
  return true;
}

ModelArtifactPtr ModelRegistry::get(std::string_view id) const {
  std::shared_lock lock(mutex_);
  const auto it = models_.find(id);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::ids() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [id, artifact] : models_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ModelRegistry::size() const {
  std::shared_lock lock(mutex_);
  return models_.size();
}

// ---- EngineVariant ---------------------------------------------------------

const std::shared_ptr<const QuantizedDfr>& quantized_twin(
    const ModelArtifactPtr& artifact) {
  DFR_CHECK_MSG(artifact != nullptr, "null model artifact");
  DFR_CHECK_MSG(artifact->quantized != nullptr,
                "artifact '" + artifact->name +
                    "' has no quantized twin (attach one with "
                    "with_quantized before quantized serving)");
  return artifact->quantized;
}

}  // namespace dfr::serve
