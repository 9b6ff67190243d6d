#pragma once
// Zero-copy model artifact store: mmap-backed .dfrm loading plus an LRU
// layer that bounds resident weight memory across a large model fleet.
//
// Loading
// -------
// `load_artifact_mmap` maps a .dfrm v2 file (dfr/dfrm_format.hpp) read-only
// and builds a `ModelArtifact` whose mask/readout matrices BORROW the mapped
// pages (`Matrix::borrow`) instead of copying them — the only per-load heap
// traffic is the artifact struct itself and the tiny Ny-entry bias vector.
// The mapping is refcounted through `ModelArtifact::backing`: engines,
// registry entries, and in-flight requests all hold `ModelArtifactPtr`
// references, so the file stays mapped exactly until the last user drops the
// artifact, then unmaps (MappedFile's destructor). Validation happens before
// any view is formed — bad magic, an unexpected version, a size mismatch,
// out-of-bounds or misaligned sections all throw typed `CheckError` and
// leave nothing mapped. Legacy v1 files (unaligned) transparently fall back
// to the copying loader behind the same call.
//
// Fleet LRU
// ---------
// `ArtifactStore` fronts a `ModelRegistry` for fleets larger than memory:
// ids are `add`ed with their .dfrm path, and `get` faults the artifact in on
// first use (registering it in the registry), touches LRU order on hits, and
// when `max_resident_bytes` would be exceeded evicts least-recently-used
// models via `ModelRegistry::evict`. Nothing else needs telling: the server
// holds a model only while a request runs on it (serve/server.hpp), so
// requests in flight finish safely on the artifact references they already
// hold, and the pages unmap as soon as the last of them resolves. A later
// `get` for an evicted id transparently faults it back in.
//
// Predictive prefetch
// -------------------
// With `ArtifactStoreConfig::prefetch` on, the store learns a first-order
// successor model over the get() id stream (the id most recently observed to
// follow each id) and, after every get(), posts a background task that
// faults the predicted-next artifact in via prefetch(). Background loads
// count under `prefetches`, never `faults`, so the fault counter remains a
// clean request-path cold-start signal — the loadgen's cold_fault_frac and
// the warm-up test both key off that split. Prefetch is advisory
// throughout: wrong predictions waste one load (LRU reclaims it), failing
// loads are swallowed, and the request path never waits on the worker.
// madvise hints ride the same events: MADV_WILLNEED when a mapping faults
// or prefetches in, MADV_DONTNEED when the LRU evicts it.
//
// Threading: all ArtifactStore methods are thread-safe behind one mutex
// (workers fault concurrently; loads serialize — acceptable because the hit
// path is a find + LRU splice and never allocates). The prefetch worker
// takes the same mutex, so a background load can delay a concurrent get()
// by one artifact-load; acceptable for the same reason, and the alternative
// (loading outside the lock) would race eviction.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "linalg/stats.hpp"
#include "serve/registry.hpp"
#include "util/parallel.hpp"

namespace dfr::serve {

/// Refcounted read-only mapping of one file. Unmaps in the destructor, i.e.
/// when the last shared_ptr (held via ModelArtifact::backing) drops.
class MappedFile {
 public:
  /// Map `path` read-only. Throws CheckError when the file cannot be
  /// opened, is empty, or mmap fails.
  static std::shared_ptr<const MappedFile> map(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] const std::byte* data() const noexcept {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Page-cache hints. WILLNEED asks the kernel to read the whole mapping
  /// ahead (issued on fault-in and prefetch so first-touch page faults are
  /// not taken on the request path); DONTNEED drops the clean file-backed
  /// pages on evict (a later touch transparently re-faults from the file —
  /// safe even with in-flight readers, read-only MAP_PRIVATE pages are
  /// never dirty). Purely advisory; failures are ignored.
  void advise_willneed() const noexcept;
  void advise_dontneed() const noexcept;

 private:
  MappedFile(void* addr, std::size_t size) noexcept
      : addr_(addr), size_(size) {}

  void* addr_;
  std::size_t size_;
};

/// Load a .dfrm file as an artifact, zero-copy when possible: v2 files are
/// mmap'ed and borrowed (see file comment), v1 files fall back to the
/// copying loader (dfr::load_artifact). Throws typed CheckError on any
/// malformed input; on failure nothing stays mapped.
[[nodiscard]] ModelArtifactPtr load_artifact_mmap(const std::string& path,
                                                  std::string name = {});

struct ArtifactStoreConfig {
  /// Bound on summed resident artifact bytes (mapped file size for v2
  /// artifacts, owned weight bytes for v1 ones, which load_artifact_mmap
  /// copies). Faulting a model in evicts least-recently-used models until
  /// the total fits. 0 = unbounded. A single artifact larger than the bound
  /// still loads (everything else is evicted first); serving it is better
  /// than refusing.
  std::size_t max_resident_bytes = 0;
  /// Recent load-latency samples kept for the load_p50 stat.
  std::size_t load_window = 128;
  /// Learn a first-order successor model over get() ids and fault the
  /// predicted next artifact in from a background worker after each get(),
  /// so steady repeating access patterns stop taking cold faults on the
  /// request path. See the "Predictive prefetch" section of the file
  /// comment.
  bool prefetch = false;
};

/// Monotonic counters + gauges; see ArtifactStore::counters().
struct ArtifactStoreCounters {
  std::uint64_t hits = 0;        // get() served from the registry
  std::uint64_t faults = 0;      // get() that had to load (cold or re-fault)
  std::uint64_t evictions = 0;   // LRU evictions driven by this store
  std::uint64_t prefetches = 0;  // background fault-ins (never count as faults)
  std::size_t resident_bytes = 0;
  std::size_t resident_models = 0;
  std::size_t tracked_models = 0;  // add()ed ids, resident or not
};

/// LRU-bounded artifact cache over a ModelRegistry. See file comment.
class ArtifactStore {
 public:
  /// The registry must outlive the store. The store assumes it is the only
  /// eviction driver for the ids it tracks; externally evicted ids are
  /// healed (re-faulted) on their next get().
  explicit ArtifactStore(ModelRegistry& registry,
                         ArtifactStoreConfig config = {});

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Track `id` -> `path` without loading. Re-adding an id updates its path
  /// (the new path is used on the next fault; a resident artifact is not
  /// reloaded eagerly).
  void add(std::string id, std::string path);

  /// The artifact serving `id`: LRU-touches and returns the resident
  /// artifact, or faults it in (load + register + evict-to-cap). Returns
  /// nullptr for an untracked id. Throws CheckError when the fault-in load
  /// fails (corrupt/missing file) — the id stays tracked and non-resident.
  [[nodiscard]] ModelArtifactPtr get(std::string_view id);

  /// Stop tracking `id`, evicting it from the registry if resident.
  /// Returns false for an untracked id.
  bool erase(std::string_view id);

  /// Fault `id` in ahead of demand: load + register + LRU-front +
  /// evict-to-cap, counted under `prefetches` (NOT `faults` — the fault
  /// counter stays a request-path signal). Advisory: untracked or already
  /// resident ids are a no-op, and a failing load is swallowed (the broken
  /// artifact surfaces as a typed error on the real get() that needs it).
  /// Called by the background worker; public so callers with their own
  /// schedule (warm-up scripts, tests) can drive it directly.
  void prefetch(std::string_view id);

  /// The id the successor model predicts will be asked for after `id`
  /// (empty when nothing has been learned yet). Exposed for tests.
  [[nodiscard]] std::string predicted_successor(std::string_view id) const;

  /// Block until every queued background prefetch has finished. No-op when
  /// prefetch is disabled. Tests use this to assert on post-warm-up state
  /// deterministically.
  void wait_prefetch_idle();

  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] ArtifactStoreCounters counters() const;

  /// Summary of recent fault-in load latencies (µs); load_p50 = .p50.
  [[nodiscard]] Summary load_latency_us() const;

  /// Append this store's metrics to `os` in the scrapeable text format
  /// (README "Stats export"): one `name{labels} value` line per metric,
  /// resident bytes and per-model load p50 included.
  void export_stats(std::ostream& os) const;

 private:
  struct Entry {
    std::string path;
    bool resident = false;
    std::size_t bytes = 0;                    // resident footprint when loaded
    std::uint64_t loads = 0;                  // lifetime fault-ins
    double last_load_us = 0.0;
    std::list<std::string>::iterator lru_it;  // valid iff resident
  };

  /// Under mutex_: mark `entry` non-resident and fix accounting.
  void note_nonresident(Entry& entry);
  /// Under mutex_: evict LRU victims (never `keep`) until the cap holds.
  void evict_to_cap(const Entry* keep);
  /// Under mutex_: load entries_[id] (timed), register it, put it at the
  /// LRU front, apply madvise(WILLNEED), and evict to cap. The caller
  /// decides which counter the load lands in (faults_ vs prefetches_).
  ModelArtifactPtr fault_in_locked(const std::string& id, Entry& entry);

  ModelRegistry* registry_;
  ArtifactStoreConfig config_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry, StringHash, std::equal_to<>> entries_;
  std::list<std::string> lru_;  // front = most recent; resident ids only
  std::size_t resident_bytes_ = 0;
  std::size_t resident_models_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t prefetches_ = 0;
  Vector load_us_;              // ring of recent load latencies
  std::size_t load_next_ = 0;

  // First-order successor model: the id most recently observed to follow
  // each id in the get() stream (last-winner, no counts — cheap and right
  // for the cyclic fleet patterns the loadgen drives).
  std::unordered_map<std::string, std::string, StringHash, std::equal_to<>>
      successor_;
  std::string last_get_id_;

  // Declared LAST: its destructor drains queued prefetch tasks (which take
  // mutex_ and touch entries_) before any other member dies.
  std::unique_ptr<BackgroundQueue> prefetch_queue_;
};

}  // namespace dfr::serve
