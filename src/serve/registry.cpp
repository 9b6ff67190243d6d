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
  {
    std::unique_lock lock(mutex_);
    models_.insert_or_assign(artifact->name, std::move(artifact));
  }
  version_.fetch_add(1, std::memory_order_release);
}

ModelArtifactPtr ModelRegistry::load(std::string id, const std::string& path) {
  ModelArtifactPtr artifact = load_artifact(path, std::move(id));
  register_model(artifact);
  return artifact;
}

bool ModelRegistry::evict(std::string_view id) {
  bool removed = false;
  {
    std::unique_lock lock(mutex_);
    const auto it = models_.find(id);
    if (it != models_.end()) {
      models_.erase(it);
      removed = true;
    }
  }
  if (removed) {
    version_.fetch_add(1, std::memory_order_release);
    // Notify outside the model lock (listeners may read the registry or
    // register models) but UNDER the listener lock — that is what makes
    // unsubscribe_evictions' "never called after return" guarantee hold,
    // and why listeners must not call evict/subscribe/unsubscribe (see the
    // subscribe_evictions contract).
    std::lock_guard<std::mutex> lock(listener_mutex_);
    for (const auto& [token, listener] : listeners_) listener(id);
  }
  return removed;
}

std::uint64_t ModelRegistry::subscribe_evictions(
    std::function<void(std::string_view)> listener) {
  DFR_CHECK_MSG(listener != nullptr, "null eviction listener");
  std::lock_guard<std::mutex> lock(listener_mutex_);
  const std::uint64_t token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void ModelRegistry::unsubscribe_evictions(std::uint64_t token) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  std::erase_if(listeners_,
                [token](const auto& entry) { return entry.first == token; });
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

// ---- PooledEngine ----------------------------------------------------------

const std::shared_ptr<const QuantizedDfr>& quantized_twin(
    const ModelArtifactPtr& artifact) {
  DFR_CHECK_MSG(artifact != nullptr, "null model artifact");
  DFR_CHECK_MSG(artifact->quantized != nullptr,
                "artifact '" + artifact->name +
                    "' has no quantized twin (attach one with "
                    "with_quantized before quantized serving)");
  return artifact->quantized;
}

namespace {

using EngineStorage =
    std::variant<SimdInferenceEngine, SimdQuantizedInferenceEngine>;

EngineStorage build_engine(ModelArtifactPtr artifact, EngineVariant variant) {
  if (variant == EngineVariant::kQuantized) {
    return EngineStorage(std::in_place_type<SimdQuantizedInferenceEngine>,
                         SimdQuantizedDatapath(quantized_twin(artifact)));
  }
  return EngineStorage(std::in_place_type<SimdInferenceEngine>,
                       SimdFloatDatapath(std::move(artifact)));
}

}  // namespace

PooledEngine::PooledEngine(ModelArtifactPtr artifact, EngineVariant variant)
    : artifact_(std::move(artifact)),
      variant_(variant),
      engine_(build_engine(artifact_, variant_)) {}

std::span<const double> PooledEngine::infer(const Matrix& series) {
  return std::visit([&](auto& engine) { return engine.infer(series); },
                    engine_);
}

int PooledEngine::classify(const Matrix& series) {
  return std::visit([&](auto& engine) { return engine.classify(series); },
                    engine_);
}

// ---- PooledBatchedEngine ---------------------------------------------------

namespace {

using BatchedEngineStorage =
    std::variant<BatchedInferenceEngine, BatchedQuantizedInferenceEngine>;

BatchedEngineStorage build_batched_engine(ModelArtifactPtr artifact,
                                          EngineVariant variant,
                                          std::size_t max_lanes) {
  if (variant == EngineVariant::kQuantized) {
    return BatchedEngineStorage(
        std::in_place_type<BatchedQuantizedInferenceEngine>,
        SimdQuantizedDatapath(quantized_twin(artifact)), max_lanes);
  }
  return BatchedEngineStorage(std::in_place_type<BatchedInferenceEngine>,
                              SimdFloatDatapath(std::move(artifact)),
                              max_lanes);
}

}  // namespace

PooledBatchedEngine::PooledBatchedEngine(ModelArtifactPtr artifact,
                                         EngineVariant variant,
                                         std::size_t max_lanes)
    : artifact_(std::move(artifact)),
      variant_(variant),
      max_lanes_(max_lanes),
      engine_(build_batched_engine(artifact_, variant_, max_lanes_)) {}

void PooledBatchedEngine::infer(std::span<const Matrix* const> series) {
  std::visit([&](auto& engine) { engine.infer(series); }, engine_);
}

std::span<const double> PooledBatchedEngine::lane_logits(
    std::size_t lane) const {
  return std::visit(
      [&](const auto& engine) { return engine.lane_logits(lane); }, engine_);
}

int PooledBatchedEngine::lane_label(std::size_t lane) const {
  return std::visit([&](const auto& engine) { return engine.lane_label(lane); },
                    engine_);
}

// ---- EnginePool ------------------------------------------------------------

EnginePool::EnginePool(std::size_t workers) : per_worker_(workers) {
  DFR_CHECK_MSG(workers > 0, "engine pool needs at least one worker slot");
}

void EnginePool::note_eviction(std::string_view id) {
  std::lock_guard<std::mutex> lock(evict_mutex_);
  for (WorkerSlot& slot : per_worker_) {
    slot.pending_evictions.emplace_back(id);
  }
  eviction_version_.fetch_add(1, std::memory_order_release);
}

void EnginePool::apply_pending_evictions(WorkerSlot& slot) {
  // Swap the pending list out under the lock, reclaim outside it: engine
  // destruction (and the artifact release it may cascade into) must not
  // serialize other workers' note_eviction bookkeeping.
  std::vector<std::string> evicted;
  {
    std::lock_guard<std::mutex> lock(evict_mutex_);
    evicted.swap(slot.pending_evictions);
    slot.applied_evictions = eviction_version_.load(std::memory_order_acquire);
  }
  std::erase_if(slot.engines, [&](const std::unique_ptr<PooledEngine>& entry) {
    const std::string& name = entry->artifact()->name;
    return std::find(evicted.begin(), evicted.end(), name) != evicted.end();
  });
  std::erase_if(slot.batched_engines,
                [&](const std::unique_ptr<PooledBatchedEngine>& entry) {
                  const std::string& name = entry->artifact()->name;
                  return std::find(evicted.begin(), evicted.end(), name) !=
                         evicted.end();
                });
}

PooledEngine& EnginePool::engine_for(std::size_t worker,
                                     const ModelArtifactPtr& artifact,
                                     EngineVariant variant) {
  DFR_CHECK_MSG(worker < per_worker_.size(), "worker slot out of range");
  DFR_CHECK_MSG(artifact != nullptr, "cannot build an engine on no artifact");
  WorkerSlot& slot = per_worker_[worker];
  // Steady-state fast path: one relaxed load; only a registry eviction
  // since this worker's last catch-up pays the mutex.
  if (slot.applied_evictions !=
      eviction_version_.load(std::memory_order_acquire)) {
    apply_pending_evictions(slot);
  }
  for (std::size_t i = 0; i < slot.engines.size(); ++i) {
    const std::unique_ptr<PooledEngine>& entry = slot.engines[i];
    if (entry->variant() != variant) continue;
    if (entry->artifact() == artifact) return *entry;  // steady state: reuse
    if (!artifact->name.empty() &&
        entry->artifact()->name == artifact->name) {
      // Hot-swap: same model name, new artifact — rebuild into the same slot
      // so the cache stays bounded by (models x variants) across any number
      // of swaps and outstanding references stay valid. Anonymous
      // (empty-name) artifacts never alias each other: distinct ones get
      // distinct slots rather than thrashing one slot through rebuilds.
      try {
        *entry = PooledEngine(artifact, variant);
      } catch (...) {
        // The replacement cannot serve this variant (e.g. the new artifact
        // dropped its quantized twin): release the stale engine before
        // rethrowing so the swapped-out artifact is not pinned forever.
        slot.engines.erase(slot.engines.begin() +
                           static_cast<std::ptrdiff_t>(i));
        throw;
      }
      return *entry;
    }
  }
  // First request for this (artifact, variant): lazy build.
  slot.engines.push_back(std::make_unique<PooledEngine>(artifact, variant));
  return *slot.engines.back();
}

PooledBatchedEngine& EnginePool::batched_engine_for(
    std::size_t worker, const ModelArtifactPtr& artifact, EngineVariant variant,
    std::size_t max_lanes) {
  DFR_CHECK_MSG(worker < per_worker_.size(), "worker slot out of range");
  DFR_CHECK_MSG(artifact != nullptr, "cannot build an engine on no artifact");
  WorkerSlot& slot = per_worker_[worker];
  if (slot.applied_evictions !=
      eviction_version_.load(std::memory_order_acquire)) {
    apply_pending_evictions(slot);
  }
  for (std::size_t i = 0; i < slot.batched_engines.size(); ++i) {
    const std::unique_ptr<PooledBatchedEngine>& entry = slot.batched_engines[i];
    if (entry->variant() != variant) continue;
    if (entry->artifact() == artifact && entry->max_lanes() == max_lanes) {
      return *entry;  // steady state: reuse
    }
    if (!artifact->name.empty() && entry->artifact()->name == artifact->name) {
      // Hot-swap (or a lane-count change): rebuild into the same slot so the
      // cache stays bounded by (models x variants) across swaps. Same
      // erase-on-failed-rebuild unwind as the unbatched cache.
      try {
        *entry = PooledBatchedEngine(artifact, variant, max_lanes);
      } catch (...) {
        slot.batched_engines.erase(slot.batched_engines.begin() +
                                   static_cast<std::ptrdiff_t>(i));
        throw;
      }
      return *entry;
    }
  }
  slot.batched_engines.push_back(
      std::make_unique<PooledBatchedEngine>(artifact, variant, max_lanes));
  return *slot.batched_engines.back();
}

void EnginePool::clear() {
  std::lock_guard<std::mutex> lock(evict_mutex_);
  for (WorkerSlot& slot : per_worker_) {
    slot.engines.clear();
    slot.batched_engines.clear();
    slot.pending_evictions.clear();
    slot.applied_evictions = eviction_version_.load(std::memory_order_acquire);
  }
}

}  // namespace dfr::serve
