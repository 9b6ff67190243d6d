#pragma once
// Multi-model serving: the model registry and the per-worker engine pool.
//
// ModelRegistry maps serving ids to immutable ModelArtifactPtr bundles
// (model_io.hpp). Registration under an existing id is an atomic hot-swap:
// readers observe either the old or the new artifact, never a torn state,
// and requests already routed to the old artifact finish against it safely
// because every engine holds a reference count on the artifact it was built
// from. Eviction removes the id; in-flight engines again keep the artifact
// alive until they drain — and eviction listeners (subscribe_evictions) let
// the engine pool reclaim its cached engines promptly instead of waiting
// for a same-name re-register.
//
// EnginePool caches one engine per (worker slot, artifact, engine variant).
// Engines are built lazily on first use and reused for every later request
// with the same routing triple, so the steady-state serving path performs
// no heap allocation per request (the engine's scratch is the only mutable
// state, and each worker slot owns its engines exclusively). A hot-swap is
// detected by artifact pointer identity: when the registry hands out a new
// artifact under a cached name, the stale engine is rebuilt in place —
// allocation happens on the swap, never per request. Evictions reclaim
// deferred: note_eviction() records the id thread-safely, and each worker
// slot drops its engines for evicted ids at its next engine_for call (on
// the worker's own thread, so an engine is never destroyed while its
// request is in flight).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
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

  /// Remove `id`. Returns false when it was not registered. Engines already
  /// built on the artifact keep it alive until they drain; subscribed
  /// eviction listeners are notified (outside the registry lock) so caches
  /// can reclaim promptly.
  bool evict(std::string_view id);

  /// The artifact currently serving `id`, or nullptr when unregistered.
  [[nodiscard]] ModelArtifactPtr get(std::string_view id) const;

  [[nodiscard]] std::vector<std::string> ids() const;
  [[nodiscard]] std::size_t size() const;

  /// Bumped on every register/evict; lets pollers detect churn cheaply.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Subscribe to evictions: `listener` is called with the evicted id after
  /// each successful evict(), outside the registry's model lock but under
  /// the listener lock (that is what makes unsubscribe_evictions' guarantee
  /// hold). Consequently a listener may read the registry or
  /// register_model(), but must NOT call evict(), subscribe_evictions(), or
  /// unsubscribe_evictions() — those re-acquire the listener lock and
  /// self-deadlock — and must not block on the evicting thread. Returns a
  /// token for unsubscribe_evictions. The listener must stay callable until
  /// unsubscribed.
  std::uint64_t subscribe_evictions(
      std::function<void(std::string_view)> listener);

  /// Drop a subscription; no-op on an unknown token. After return the
  /// listener is never called again.
  void unsubscribe_evictions(std::uint64_t token);

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, ModelArtifactPtr, StringHash, std::equal_to<>>
      models_;
  std::atomic<std::uint64_t> version_{0};

  mutable std::mutex listener_mutex_;
  std::uint64_t next_listener_token_ = 1;
  std::vector<std::pair<std::uint64_t, std::function<void(std::string_view)>>>
      listeners_;
};

/// Which numeric family a pooled serving engine runs: kFloat serves the
/// artifact's float weights, kQuantized its calibrated fixed-point twin
/// (ModelArtifact::quantized, attached via with_quantized). Both run the
/// SIMD datapaths on simd::active_backend() at build time, so the kernels
/// are the host's choice, not the request's: DFR_SIMD=scalar is how a
/// process serves scalar arithmetic.
enum class EngineVariant { kFloat, kQuantized };

/// The artifact's calibrated fixed-point twin, the model quantized serving
/// runs on. Throws CheckError when `artifact` is null or carries no twin
/// (the server maps that to kInvalidArgument).
[[nodiscard]] const std::shared_ptr<const QuantizedDfr>& quantized_twin(
    const ModelArtifactPtr& artifact);

/// One cached serving engine: an artifact reference plus the engine built on
/// it. kQuantized requires the artifact to carry a quantized twin and throws
/// CheckError otherwise (see quantized_twin).
class PooledEngine {
 public:
  PooledEngine(ModelArtifactPtr artifact, EngineVariant variant);

  /// Logits for one series; the span aliases engine scratch. Zero heap
  /// allocations in steady state (the BasicEngine contract).
  std::span<const double> infer(const Matrix& series);

  /// Argmax class for one series.
  int classify(const Matrix& series);

  [[nodiscard]] const ModelArtifactPtr& artifact() const noexcept {
    return artifact_;
  }
  [[nodiscard]] EngineVariant variant() const noexcept { return variant_; }

 private:
  ModelArtifactPtr artifact_;
  EngineVariant variant_;
  std::variant<SimdInferenceEngine, SimdQuantizedInferenceEngine> engine_;
};

/// One cached batched serving engine: an artifact reference plus the
/// cross-request SoA engine built on it (serve/engine.hpp BatchedEngine) on
/// the active backend. kQuantized requires the artifact to carry a
/// quantized twin and throws CheckError otherwise (the server maps that to
/// kInvalidArgument for every coalesced lane).
class PooledBatchedEngine {
 public:
  PooledBatchedEngine(ModelArtifactPtr artifact, EngineVariant variant,
                      std::size_t max_lanes);

  /// Run one series per lane (same contract as BatchedEngine::infer). Zero
  /// heap allocations in steady state.
  void infer(std::span<const Matrix* const> series);

  /// Lane accessors for the last infer(); spans alias engine scratch.
  [[nodiscard]] std::span<const double> lane_logits(std::size_t lane) const;
  [[nodiscard]] int lane_label(std::size_t lane) const;

  [[nodiscard]] const ModelArtifactPtr& artifact() const noexcept {
    return artifact_;
  }
  [[nodiscard]] EngineVariant variant() const noexcept { return variant_; }
  [[nodiscard]] std::size_t max_lanes() const noexcept { return max_lanes_; }

 private:
  ModelArtifactPtr artifact_;
  EngineVariant variant_;
  std::size_t max_lanes_;
  std::variant<BatchedInferenceEngine, BatchedQuantizedInferenceEngine>
      engine_;
};

/// Lazily-built per-(worker, artifact, variant) engine cache. Distinct
/// worker slots may be used from distinct threads concurrently; one slot
/// must only ever be driven by one thread at a time (the server maps
/// slot = worker thread). Engines for evicted models are reclaimed
/// promptly: note_eviction() (wired to ModelRegistry::subscribe_evictions
/// by the server) records the id, and each worker drops its matching
/// engines at its next engine_for call — on its own thread, never under an
/// in-flight request. clear() remains the registry-wide purge.
class EnginePool {
 public:
  explicit EnginePool(std::size_t workers);

  [[nodiscard]] std::size_t workers() const noexcept {
    return per_worker_.size();
  }

  /// The engine serving `artifact` on `worker` with `variant`. Cached
  /// engine reused when the artifact pointer is unchanged; rebuilt in place
  /// when the same model name resolves to a new artifact (hot-swap);
  /// appended on first use. Steady state (cache hit): no allocation — the
  /// pending-eviction check is one relaxed atomic load. The reference is
  /// stable across later engine_for calls on the same worker (entries are
  /// heap slots, and a hot-swap rebuilds into the same slot) until the next
  /// eviction reclaim or clear() invalidates it.
  PooledEngine& engine_for(std::size_t worker, const ModelArtifactPtr& artifact,
                           EngineVariant variant);

  /// The batched engine serving `artifact` on `worker` with `variant` and
  /// `max_lanes` lanes. Same caching, hot-swap-rebuild, and
  /// eviction-reclaim semantics as engine_for; batched engines live in
  /// their own per-worker cache so mixed batched/unbatched traffic never
  /// thrashes either. A `max_lanes` mismatch on a cached entry rebuilds it
  /// (the server passes its fixed ServerConfig::max_batch, so this never
  /// triggers in steady state).
  PooledBatchedEngine& batched_engine_for(std::size_t worker,
                                          const ModelArtifactPtr& artifact,
                                          EngineVariant variant,
                                          std::size_t max_lanes);

  /// Record an evicted model id (thread-safe, callable from any thread —
  /// typically a ModelRegistry eviction listener). Each worker slot drops
  /// its cached engines for the id at its next engine_for call; an id
  /// re-registered in the meantime is simply rebuilt on first use.
  void note_eviction(std::string_view id);

  /// Drop every cached engine (e.g. after bulk evictions). NOT safe while
  /// any worker is serving.
  void clear();

 private:
  struct WorkerSlot {
    // unique_ptr slots keep engine_for references stable across appends.
    std::vector<std::unique_ptr<PooledEngine>> engines;
    std::vector<std::unique_ptr<PooledBatchedEngine>> batched_engines;
    std::vector<std::string> pending_evictions;  // guarded by evict_mutex_
    std::uint64_t applied_evictions = 0;         // worker-thread-owned
  };

  void apply_pending_evictions(WorkerSlot& slot);

  std::vector<WorkerSlot> per_worker_;
  std::mutex evict_mutex_;  // guards pending_evictions + eviction_version_ writes
  std::atomic<std::uint64_t> eviction_version_{0};
};

}  // namespace dfr::serve
