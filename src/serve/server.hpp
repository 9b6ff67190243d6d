#pragma once
// InferenceServer: the request-queue front end over the model registry —
// the serving shape the paper's O(Nx) streaming claim is for.
//
//   clients --submit(model_id, series)--> bounded MPMC queue
//       --> worker threads (util/parallel.hpp pool, each owning its engine
//           scratch) --> per-request routing through ModelRegistry
//       --> InferFuture resolves with logits/label/latency
//
// Design points:
//
//  * Bounded queue with reject-on-full backpressure. submit() never blocks:
//    when `queue_capacity` requests are pending, executing, or holding
//    uncollected results, it returns an already-resolved future with
//    RequestStatus::kQueueFull (a typed error, not an exception — overload
//    is an expected state, and in steady state the rejection path does not
//    allocate; a registered model's first-ever rejection creates its stats
//    entry once).
//
//  * Zero heap allocations per request in steady state. Request slots (the
//    id string, the series pointer, and the result's logits storage) are
//    preallocated at construction and recycled through a free list; each
//    worker owns one single-series and one batched engine scratch per
//    numeric family (serve/engine.hpp SeriesScratch, BatchedScratch),
//    sized on first use and grown only past the largest model served;
//    InferFuture is a plain slot handle. This is why submit() returns
//    InferFuture rather than std::future — std::promise heap-allocates its
//    shared state on every request. test_server.cpp instruments operator
//    new to pin this, unbatched and micro-batched.
//
//  * Model per request. A worker resolves the model id against the
//    registry per request (per micro-batch), builds that artifact's SIMD
//    datapath on its stack, runs it over the worker's scratch, and drops
//    every reference to the artifact before the request reads ready. So
//    nothing in the server outlives a request's hold on its model: an
//    artifact re-registered mid-traffic serves new requests while in-flight
//    ones finish on the artifact they were routed to (shared ownership,
//    see model_io.hpp), and an evicted one is freed as soon as its last
//    request resolves. Requests never cross-route.
//
//  * Opportunistic micro-batching (ServerConfig::max_batch > 1). A worker
//    that dequeues a request claims already-queued requests for the same
//    (model id, engine variant, series shape), waits up to
//    ServerConfig::batch_window_us for more matching arrivals, and runs the
//    coalesced set as ONE cross-request SoA inference (BatchedScratch: one
//    request per vector lane, so the serialized B-chain and the DPRR
//    vectorize across requests). Each lane's result routes back to its own InferFuture;
//    singleton traffic falls back to the per-request path. The batch is
//    routed ONCE at dequeue time — all lanes serve the artifact the head
//    resolved, which is what makes hot-swap semantics identical to the
//    unbatched path.
//
//  * SLO-aware admission (RequestOptions::deadline_us / priority). Workers
//    dequeue highest-priority-first and shed requests whose deadline already
//    passed with a typed kDeadlineExceeded BEFORE spending engine time —
//    under overload the queue drops late work instead of serving the whole
//    backlog late. The micro-batcher coalesces matching requests in
//    priority order. Shed requests count in a per-model `shed` stat.
//
//  * Clean shutdown. shutdown() stops admission (kShutdown rejections),
//    drains every queued request, joins the workers, and is idempotent;
//    the destructor calls it.
//
//  * Per-model counters (completed/errors/rejected/shed) plus a
//    recent-latency window summarized through stats::summarize
//    (linalg/stats.hpp), exportable as a scrapeable text page
//    (export_stats), with a dropped_stats counter surfacing ids the
//    max_tracked_models cap forced the server to stop counting.
//
// Threading: submit()/stats() are safe from any number of client threads.
// The worker loops run on a private util/parallel.hpp ThreadPool (the
// process-global pool stays free for classify_batch and training sweeps);
// each worker owns its engine scratch, which keeps it unshared without
// locking around inference.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/stats.hpp"
#include "serve/registry.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace dfr::serve {

enum class RequestStatus : int {
  kOk = 0,
  kQueueFull,      // backpressure: queue_capacity requests already admitted
  kUnknownModel,   // model_id not registered (at processing time)
  kInvalidArgument,  // series rejected by the engine (shape mismatch, ...)
  kInternalError,  // unexpected server-side failure (logged; not the client)
  kShutdown,       // submitted after shutdown() began
  kDeadlineExceeded,  // shed: RequestOptions::deadline_us passed before a
                      // worker picked the request up (never executed)
};

[[nodiscard]] const char* request_status_name(RequestStatus status) noexcept;

/// One request's outcome. For accepted requests the storage lives in the
/// server's slot and is valid until the owning InferFuture is destroyed.
struct InferResult {
  RequestStatus status = RequestStatus::kOk;
  int label = -1;      // argmax of logits; -1 on error
  Vector logits;       // empty on error
  /// Submit -> completion (queue wait + inference). A request rejected at
  /// submit (kQueueFull, kShutdown, or a submit-time kDeadlineExceeded
  /// shed) never took a slot and reads 0. An admitted request shed for its
  /// deadline reads at least its deadline_us: the queue sweep and the
  /// dequeue shed fire only once that much time has elapsed.
  double latency_us = 0.0;
};

struct ServerConfig {
  /// Serving threads; each owns its engine scratch. 0 = hardware_threads().
  std::size_t workers = 1;
  /// Bound on requests that are pending, executing, or holding uncollected
  /// results at once; submissions beyond it are rejected with kQueueFull.
  std::size_t queue_capacity = 256;
  /// Per-model recent-latency samples kept for stats().
  std::size_t latency_window = 512;
  /// Bound on distinct model ids tracked by stats(). Only ids that resolve
  /// in the registry ever claim a tracking slot (bogus client-supplied ids
  /// cannot starve real models of stats); the cap bounds memory across
  /// registered-model churn. Traffic beyond the cap is served normally but
  /// not counted per-model.
  std::size_t max_tracked_models = 64;
  /// Opportunistic micro-batching: a worker that dequeues a request
  /// coalesces up to `max_batch` already-queued requests for the same
  /// (model id, engine variant, series shape) into one cross-request SoA
  /// inference (serve/engine.hpp BatchedScratch), routing each lane's result
  /// to its own InferFuture. 1 (the default) disables batching — every
  /// request takes the single-series path. Validated at construction:
  /// must be in [1, simd::kBatchedMaxLanes], and `batch_window_us` must be
  /// positive when batching is enabled (typed CheckError, not a clamp).
  std::size_t max_batch = 1;
  /// How long a worker holding a non-full batch waits for more matching
  /// arrivals before launching, in microseconds, measured from the moment
  /// the batch head is dequeued. Singleton traffic therefore pays up to one
  /// window of extra latency when batching is enabled; a full batch, a
  /// non-matching queue, or shutdown launches immediately. Ignored (and
  /// allowed to stay 0) when max_batch == 1.
  std::size_t batch_window_us = 0;
  /// Submit-side predictive shed: reject a deadline-carrying request with a
  /// typed kDeadlineExceeded at submit() when the backlog ahead of it —
  /// pending requests times the EWMA of recent service times, divided
  /// across workers — already exceeds its budget, instead of queueing work
  /// that is doomed to be shed later anyway. Conservative by construction:
  /// it never fires on a cold server (the EWMA trains on completions) or on
  /// an empty queue, and deadline-free requests are never predicted against.
  bool shed_on_submit = true;
};

/// Per-request options. `engine` picks the numeric family: kFloat (the
/// default) serves the artifact's float weights, kQuantized its calibrated
/// fixed-point twin (ModelArtifact::quantized, attached via with_quantized;
/// requests for an artifact without one resolve to kInvalidArgument). The
/// kernels are the process's active SIMD backend, never a request option.
/// Like the model id, the family is resolved against the artifact per
/// request at processing time, so a hot-swap that adds or drops a quantized
/// twin takes effect on the next request.
/// SLO knobs (`deadline_us`, `priority`) shape HOW the queue drains under
/// load: workers dequeue the highest-priority request first (FIFO within a
/// priority level; cancellations may perturb that tie-break), the
/// micro-batcher coalesces matching requests highest-priority-first, and a
/// request whose deadline has already passed when a worker picks it up is
/// shed with a typed kDeadlineExceeded before any engine time is spent on
/// it. Shedding is queue-position aware: a predictably-doomed request is
/// dropped typed at submit() (ServerConfig::shed_on_submit), one whose
/// budget expires while waiting is claimed and shed by the next worker's
/// queue sweep, and one that slips past both still sheds at dequeue — an
/// admitted request always resolves, either with a result or with the
/// typed shed status.
struct RequestOptions {
  EngineVariant engine = EngineVariant::kFloat;
  /// Completion budget in microseconds, measured from submit(); 0 = none.
  /// When the budget is exhausted before a worker dequeues the request, it
  /// is shed with kDeadlineExceeded instead of executing late.
  std::uint64_t deadline_us = 0;
  /// Dequeue priority: higher runs first. Default 0 keeps pure FIFO.
  std::int32_t priority = 0;
};

/// Per-model serving counters; see InferenceServer::stats.
struct ModelServingStats {
  std::uint64_t completed = 0;  // requests finished with kOk
  std::uint64_t errors = 0;     // finished with kUnknownModel/kInvalidArgument
  std::uint64_t rejected = 0;   // kQueueFull/kShutdown rejections for this id
  std::uint64_t shed = 0;       // kDeadlineExceeded: dropped unexecuted
  Summary latency_us;           // summarize() over the recent-latency window
};

class InferenceServer;

/// Move-only handle to one submitted request. Destroying it releases the
/// request's slot back to the server. Abandoning a future before it is
/// ready is safe: a still-queued request is cancelled (the worker never
/// touches its series), and a request already executing blocks the
/// destructor for the remainder of that one inference — either way the
/// submitted series is never read after the future is gone. A future must
/// not outlive the server that issued it.
class InferFuture {
 public:
  InferFuture() = default;
  InferFuture(InferFuture&& other) noexcept;
  InferFuture& operator=(InferFuture&& other) noexcept;
  InferFuture(const InferFuture&) = delete;
  InferFuture& operator=(const InferFuture&) = delete;
  ~InferFuture();

  /// False only for a default-constructed or moved-from handle.
  [[nodiscard]] bool valid() const noexcept;

  /// True once the result is available (immediately so for rejections).
  [[nodiscard]] bool ready() const;

  /// Block until the result is available.
  void wait() const;

  /// wait() + the result. The reference stays valid until this future is
  /// destroyed or moved-from. Throws CheckError on an invalid handle.
  [[nodiscard]] const InferResult& get() const;

 private:
  friend class InferenceServer;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  InferFuture(InferenceServer* server, std::size_t slot) noexcept
      : server_(server), slot_(slot) {}
  explicit InferFuture(RequestStatus rejection) noexcept
      : rejection_(rejection) {}

  InferenceServer* server_ = nullptr;  // null for rejected / invalid handles
  std::size_t slot_ = kNoSlot;
  RequestStatus rejection_ = RequestStatus::kOk;  // != kOk marks a rejection
};

class InferenceServer {
 public:
  /// Starts `config.workers` serving threads immediately. The registry must
  /// outlive the server; models may be registered/swapped/evicted while the
  /// server runs.
  explicit InferenceServer(ModelRegistry& registry, ServerConfig config = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue one series for `model_id`. Zero-copy admission: the caller
  /// must keep `series` alive and unmodified while the future is held (the
  /// future's destructor cancels or finishes the request, so destroying the
  /// future and then the series is always safe). Never blocks: returns an
  /// already-resolved kQueueFull / kShutdown future when the request cannot
  /// be admitted. The options' engine variant routes the request per
  /// request — see RequestOptions for the quantized path.
  [[nodiscard]] InferFuture submit(std::string_view model_id,
                                   const Matrix& series,
                                   RequestOptions options = {});

  /// Synchronous batch path: routes by id, then fans out over the
  /// process-global pool exactly like the free classify_batch (bypasses the
  /// request queue and its capacity bound). Throws CheckError when
  /// `model_id` is not registered — or when kQuantized is requested for an
  /// artifact without a quantized twin.
  [[nodiscard]] std::vector<int> classify_batch(std::string_view model_id,
                                                std::span<const Matrix> series,
                                                unsigned threads = 0,
                                                RequestOptions options = {});

  /// Stop admission, drain every queued request, join the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// True until shutdown() begins.
  [[nodiscard]] bool accepting() const;

  /// Counters for one model id (zeroes when the id never saw traffic).
  [[nodiscard]] ModelServingStats stats(std::string_view model_id) const;

  /// (id, counters) for every id that saw traffic, sorted by id.
  [[nodiscard]] std::vector<std::pair<std::string, ModelServingStats>> stats()
      const;

  /// Stat recordings silently dropped because the max_tracked_models cap
  /// was exhausted when a new id needed a tracking slot. Nonzero means the
  /// per-model counters undercount; raise the cap or prune the fleet.
  [[nodiscard]] std::uint64_t dropped_stats() const;

  /// Append per-model serving metrics to `os` in the scrapeable text format
  /// (README "Stats export"): one `name{labels} value` line per metric —
  /// completed/errors/rejected/shed totals, latency quantiles, and the
  /// dropped-stats counter. Concatenate with ArtifactStore::export_stats
  /// for one scrape page covering traffic AND residency.
  void export_stats(std::ostream& os) const;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return config_.queue_capacity;
  }

  /// Requests currently pending in the bounded queue (admitted, not yet
  /// claimed by a worker) — the instantaneous load signal the shard's
  /// health response carries for the router's load-aware replica choice.
  [[nodiscard]] std::size_t queue_depth() const;

  /// EWMA of recent per-request engine service times, µs (the same estimate
  /// the submit-side predictive shed trains on); 0 until the first
  /// completion.
  [[nodiscard]] double ewma_service_us() const noexcept {
    return static_cast<double>(
               ewma_service_ns_.load(std::memory_order_relaxed)) *
           1e-3;
  }

 private:
  friend class InferFuture;
  struct Slot;
  struct StatsEntry;
  struct WorkerScratch;

  void worker_loop();
  /// Serve one request over the worker's scratch.
  void process(WorkerScratch& scratch, std::size_t slot_index);
  /// Under mutex_: claim queued requests matching the batch head (same
  /// model id, engine variant, and series shape) into `batch`, compacting
  /// the pending ring and freeing abandoned slots along the way.
  void claim_batchmates(std::vector<std::size_t>& batch);
  /// Under mutex_ (lock passed in): fill `batch` up to max_batch, waiting
  /// out the batch window for more matching arrivals.
  void collect_batch(std::unique_lock<std::mutex>& lock,
                     std::vector<std::size_t>& batch);
  /// Run one coalesced batch over the worker's batched scratch, fanning the
  /// per-lane results (or a shared error) to every slot.
  void process_batch(WorkerScratch& scratch,
                     const std::vector<std::size_t>& batch);
  void release_slot(std::size_t slot_index);
  /// Resolve a dequeued-but-late request as kDeadlineExceeded without
  /// executing it (counted in the per-model `shed` stat). Caller must not
  /// hold mutex_.
  void shed_slot(std::size_t slot_index);
  void record_outcome(std::string_view model_id, const InferResult& result,
                      bool id_is_registered);
  void record_rejection(std::string_view model_id);
  /// Count a submit-time predictive shed in the per-model `shed` stat.
  void record_submit_shed(std::string_view model_id);
  /// Under mutex_: would a request admitted now predictably miss
  /// `deadline_us` just waiting out the backlog ahead of it?
  [[nodiscard]] bool predicted_wait_exceeds(std::uint64_t deadline_us) const;
  /// Train the service-time EWMA behind predicted_wait_exceeds.
  void note_service_time(std::uint64_t ns);
  /// Find-or-create under stats_mutex_. Creates an entry only when
  /// `allow_create` (the id resolved in the registry) and the
  /// max_tracked_models cap is not exhausted; nullptr otherwise.
  StatsEntry* stats_entry_for(std::string_view model_id, bool allow_create);
  [[nodiscard]] bool slot_ready(std::size_t slot_index) const;
  void wait_slot(std::size_t slot_index) const;
  [[nodiscard]] const InferResult& slot_result(std::size_t slot_index) const;

  ModelRegistry* registry_;
  ServerConfig config_;
  std::size_t workers_ = 1;

  // Request slots + bounded pending ring + free list; see server.cpp.
  mutable std::mutex mutex_;
  mutable std::condition_variable work_cv_;   // wakes workers
  mutable std::condition_variable done_cv_;   // wakes future waiters
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::size_t> pending_;  // ring buffer of slot indices
  std::size_t pending_head_ = 0;
  std::size_t pending_count_ = 0;
  std::vector<std::size_t> free_;
  bool accepting_ = true;
  bool stop_workers_ = false;
  std::uint64_t submit_seq_ = 0;  // bumped per admission; batch-window wakeups
  /// EWMA of recent per-request engine service times (ns); trains the
  /// submit-side predictive shed. Atomic so workers update it lock-free.
  std::atomic<std::uint64_t> ewma_service_ns_{0};

  // Per-model counters, keyed by id.
  mutable std::mutex stats_mutex_;
  std::unordered_map<std::string, StatsEntry, StringHash, std::equal_to<>>
      stats_;
  std::uint64_t dropped_stats_ = 0;  // guarded by stats_mutex_

  std::unique_ptr<ThreadPool> thread_pool_;  // private; not the global pool
  std::thread dispatcher_;  // runs for_each_index(workers, worker_loop)
};

}  // namespace dfr::serve
