#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <limits>
#include <ostream>
#include <utility>

#include "serve/engine.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace dfr::serve {

const char* request_status_name(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kQueueFull: return "queue-full";
    case RequestStatus::kUnknownModel: return "unknown-model";
    case RequestStatus::kInvalidArgument: return "invalid-argument";
    case RequestStatus::kInternalError: return "internal-error";
    case RequestStatus::kShutdown: return "shutdown";
    case RequestStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

namespace {

/// Shared immutable results for rejected submissions (no slot is consumed,
/// so rejection costs no allocation). kDeadlineExceeded is the submit-time
/// predictive shed: the queue is deep enough that the request was doomed to
/// miss its deadline while waiting, so it is dropped before taking a slot.
const InferResult& rejected_result(RequestStatus status) {
  static const InferResult queue_full{RequestStatus::kQueueFull, -1, {}, 0.0};
  static const InferResult shut_down{RequestStatus::kShutdown, -1, {}, 0.0};
  static const InferResult doomed{RequestStatus::kDeadlineExceeded, -1, {}, 0.0};
  switch (status) {
    case RequestStatus::kQueueFull: return queue_full;
    case RequestStatus::kDeadlineExceeded: return doomed;
    default: return shut_down;
  }
}

}  // namespace

// ---- request slots ---------------------------------------------------------

/// One preallocated request slot, recycled through the free list. All fields
/// are written by the submitting thread before the slot enters the pending
/// ring and read by exactly one worker; `state`/`abandoned` transitions are
/// guarded by the server mutex.
///
/// The state machine protects the caller's series from use-after-free when a
/// future is dropped early: kQueued slots cancel (the worker frees them
/// without ever dereferencing `series`), and dropping a future on a
/// kExecuting slot blocks briefly until the worker finishes — so `series` is
/// never read after the owning future is gone.
struct InferenceServer::Slot {
  enum class State { kQueued, kExecuting, kReady };

  std::string model_id;
  const Matrix* series = nullptr;
  RequestOptions options;  // engine-variant routing, resolved at process time
  Timer timer;         // restarted at submit; read at completion
  InferResult result;  // logits storage reused across requests
  State state = State::kQueued;
  bool abandoned = false;  // future dropped while still queued: cancel
  /// The artifact as resolved at ADMISSION. Workers still re-resolve the id
  /// at dequeue so a hot-swap serves the newest artifact, but when the
  /// dequeue lookup comes back empty this pin closes the evict window: a
  /// store eviction between submit and dequeue must not turn an ACCEPTED
  /// request into kUnknownModel (ids never registered pin null and still
  /// answer kUnknownModel). Reset at resolution so a recycled slot can't
  /// keep a dead artifact's mapping alive.
  ModelArtifactPtr pinned;
};

/// One worker's engine scratch: per numeric family, a single-series scratch
/// and a batched one for max_batch lanes. Each is sized by the first model
/// it serves and grows only past the largest; none holds a model. run()
/// builds the request's datapath on the stack, so the model's life is the
/// call's.
struct InferenceServer::WorkerScratch {
  explicit WorkerScratch(std::size_t max_batch)
      : float_lanes(max_batch), quantized_lanes(max_batch) {}

  /// body(datapath, series_scratch, batched_scratch) on `artifact`'s
  /// `variant`: kFloat its float weights, kQuantized its fixed-point twin
  /// (CheckError when it carries none), on the active backend. Takes the
  /// caller's reference: the model is released when the call returns.
  template <typename Body>
  void run(ModelArtifactPtr artifact, EngineVariant variant,
           const Body& body) {
    if (variant == EngineVariant::kQuantized) {
      body(SimdQuantizedDatapath(quantized_twin(artifact)), quantized_series,
           quantized_lanes);
    } else {
      body(SimdFloatDatapath(std::move(artifact)), float_series, float_lanes);
    }
  }

  SeriesScratch<SimdFloatDatapath> float_series;
  SeriesScratch<SimdQuantizedDatapath> quantized_series;
  BatchedScratch<SimdFloatDatapath> float_lanes;
  BatchedScratch<SimdQuantizedDatapath> quantized_lanes;
};

/// Per-model counters plus a fixed-size recent-latency ring.
struct InferenceServer::StatsEntry {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;  // kDeadlineExceeded: dequeued late, never executed
  Vector latencies;       // ring storage, capacity = latency_window
  std::size_t next = 0;   // ring write position
};

// ---- InferFuture -----------------------------------------------------------

InferFuture::InferFuture(InferFuture&& other) noexcept
    : server_(std::exchange(other.server_, nullptr)),
      slot_(std::exchange(other.slot_, kNoSlot)),
      rejection_(std::exchange(other.rejection_, RequestStatus::kOk)) {}

InferFuture& InferFuture::operator=(InferFuture&& other) noexcept {
  if (this != &other) {
    if (server_ != nullptr) server_->release_slot(slot_);
    server_ = std::exchange(other.server_, nullptr);
    slot_ = std::exchange(other.slot_, kNoSlot);
    rejection_ = std::exchange(other.rejection_, RequestStatus::kOk);
  }
  return *this;
}

InferFuture::~InferFuture() {
  if (server_ != nullptr) server_->release_slot(slot_);
}

bool InferFuture::valid() const noexcept {
  return server_ != nullptr || rejection_ != RequestStatus::kOk;
}

bool InferFuture::ready() const {
  if (server_ == nullptr) return valid();  // rejections resolve immediately
  return server_->slot_ready(slot_);
}

void InferFuture::wait() const {
  if (server_ != nullptr) server_->wait_slot(slot_);
}

const InferResult& InferFuture::get() const {
  if (server_ == nullptr) {
    DFR_CHECK_MSG(rejection_ != RequestStatus::kOk,
                  "get() on an invalid InferFuture");
    return rejected_result(rejection_);
  }
  server_->wait_slot(slot_);
  return server_->slot_result(slot_);
}

// ---- InferenceServer: lifecycle --------------------------------------------

InferenceServer::InferenceServer(ModelRegistry& registry, ServerConfig config)
    : registry_(&registry),
      config_(config),
      workers_(config.workers == 0 ? hardware_threads() : config.workers) {
  DFR_CHECK_MSG(config_.queue_capacity > 0,
                "queue capacity must be positive");
  // Micro-batch knobs fail loudly at construction instead of being clamped:
  // a max_batch beyond the kernel lane count or a zero window with batching
  // enabled is a config bug, not a preference.
  DFR_CHECK_MSG(config_.max_batch > 0,
                "max_batch must be positive (1 disables micro-batching)");
  DFR_CHECK_MSG(config_.max_batch <= simd::kBatchedMaxLanes,
                "max_batch exceeds the batched kernel lane count "
                "(simd::kBatchedMaxLanes = " +
                    std::to_string(simd::kBatchedMaxLanes) + ")");
  DFR_CHECK_MSG(config_.max_batch == 1 || config_.batch_window_us > 0,
                "micro-batching (max_batch > 1) requires a positive "
                "batch_window_us");
  slots_.reserve(config_.queue_capacity);
  for (std::size_t i = 0; i < config_.queue_capacity; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->model_id.reserve(64);        // typical ids stay allocation-free
    slot->result.logits.reserve(16);   // grows once for wider readouts
    slots_.push_back(std::move(slot));
  }
  pending_.assign(config_.queue_capacity, 0);
  free_.reserve(config_.queue_capacity);
  for (std::size_t i = config_.queue_capacity; i-- > 0;) free_.push_back(i);

  // Private worker pool: the dispatcher thread participates in the job, so
  // `workers_` loops run concurrently, each with its own engine scratch.
  // The process-global pool stays free for classify_batch / training sweeps.
  thread_pool_ = std::make_unique<ThreadPool>(
      workers_ > 1 ? static_cast<unsigned>(workers_ - 1) : 0);
  dispatcher_ = std::thread([this] {
    thread_pool_->for_each_index(
        workers_, [this](std::size_t) { worker_loop(); },
        {.threads = static_cast<unsigned>(workers_)});
  });
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

bool InferenceServer::accepting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepting_;
}

std::size_t InferenceServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_count_;
}

// ---- InferenceServer: admission --------------------------------------------

/// Caller holds mutex_. Predicted queue wait for a request admitted NOW,
/// from the worker-averaged EWMA of recent service times: the queue ahead
/// drains in ceil(pending / workers) waves of roughly one service time
/// each. Zero until the first completion trains the estimate — a cold
/// server never predictively sheds.
bool InferenceServer::predicted_wait_exceeds(
    std::uint64_t deadline_us) const {
  const std::uint64_t ewma_ns =
      ewma_service_ns_.load(std::memory_order_relaxed);
  if (ewma_ns == 0 || pending_count_ == 0) return false;
  const std::uint64_t waves = (pending_count_ + workers_ - 1) / workers_;
  return waves * ewma_ns > deadline_us * 1000;
}

InferFuture InferenceServer::submit(std::string_view model_id,
                                    const Matrix& series,
                                    RequestOptions options) {
  RequestStatus rejection = RequestStatus::kOk;
  std::size_t slot_index = InferFuture::kNoSlot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      rejection = RequestStatus::kShutdown;
    } else if (free_.empty()) {
      rejection = RequestStatus::kQueueFull;  // backpressure: reject, don't block
    } else if (config_.shed_on_submit && options.deadline_us > 0 &&
               predicted_wait_exceeds(options.deadline_us)) {
      // Queue-position shed, submit side: the backlog ahead already dooms
      // this deadline, so drop it typed NOW instead of letting it age in
      // the queue displacing requests that can still make their SLOs.
      rejection = RequestStatus::kDeadlineExceeded;
    } else {
      slot_index = free_.back();
      free_.pop_back();
      Slot& slot = *slots_[slot_index];
      slot.model_id.assign(model_id);
      slot.series = &series;
      slot.options = options;
      slot.state = Slot::State::kQueued;
      slot.abandoned = false;
      slot.pinned = registry_->get(model_id);  // admission-time pin
      slot.timer.restart();
      pending_[(pending_head_ + pending_count_) % pending_.size()] = slot_index;
      ++pending_count_;
      ++submit_seq_;  // wakes batch-window waiters exactly once per admission
    }
  }
  if (rejection == RequestStatus::kDeadlineExceeded) {
    record_submit_shed(model_id);  // shed, not rejected: it had a slot's worth
    return InferFuture(rejection);  // of room but could never make its SLO
  }
  if (rejection != RequestStatus::kOk) {
    record_rejection(model_id);
    return InferFuture(rejection);
  }
  work_cv_.notify_one();
  return InferFuture(this, slot_index);
}

// ---- InferenceServer: workers ----------------------------------------------

namespace {

/// True when the slot's completion budget ran out before execution started.
bool past_deadline(std::uint64_t deadline_us, const Timer& timer) noexcept {
  return deadline_us > 0 && timer.elapsed_ns() >= deadline_us * 1000;
}

}  // namespace

void InferenceServer::worker_loop() {
  // Reused across iterations (reserve once: the batch path allocates
  // nothing per request).
  WorkerScratch scratch(config_.max_batch);
  std::vector<std::size_t> batch;
  batch.reserve(config_.max_batch);
  std::vector<std::size_t> doomed;
  doomed.reserve(config_.queue_capacity);
  for (;;) {
    batch.clear();
    doomed.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return stop_workers_ || pending_count_ > 0; });
      if (pending_count_ == 0) return;  // stopping and fully drained
      // Queue-position shed, queued side: claim every slot whose deadline
      // expired while it waited (and free abandoned ones), compacting the
      // ring — doomed requests resolve typed below instead of aging further
      // back in a queue they can no longer survive. The clock read is
      // gated on deadline_us, so deadline-free traffic pays nothing.
      const std::size_t scanned = pending_count_;
      std::size_t kept = 0;
      for (std::size_t p = 0; p < scanned; ++p) {
        const std::size_t index =
            pending_[(pending_head_ + p) % pending_.size()];
        Slot& s = *slots_[index];
        if (s.abandoned) {
          s.abandoned = false;
          s.pinned.reset();
          free_.push_back(index);
          continue;
        }
        if (past_deadline(s.options.deadline_us, s.timer)) {
          s.state = Slot::State::kExecuting;  // claimed for shedding
          doomed.push_back(index);
          continue;
        }
        pending_[(pending_head_ + kept) % pending_.size()] = index;
        ++kept;
      }
      pending_count_ = kept;
      if (pending_count_ == 0) {
        // Everything pending was doomed or abandoned; shed outside the lock.
        lock.unlock();
        for (const std::size_t index : doomed) shed_slot(index);
        continue;
      }
      // Priority-aware dequeue: take the first occurrence of the highest
      // priority, so all-default-priority traffic dequeues in pure FIFO
      // order (the scan then picks the head itself and the swap is a
      // no-op). Abandoned slots rank above everything — freeing them
      // promptly is what keeps a cancelled request from pinning its slot.
      // The swap that hoists the winner moves the old head deeper into the
      // ring, so FIFO within one priority level is only approximate while
      // priorities are mixed.
      std::size_t take = 0;
      std::int64_t best = std::numeric_limits<std::int64_t>::min();
      constexpr std::int64_t kAbandonedRank =
          std::numeric_limits<std::int64_t>::max();
      for (std::size_t p = 0; p < pending_count_; ++p) {
        const Slot& s =
            *slots_[pending_[(pending_head_ + p) % pending_.size()]];
        const std::int64_t rank =
            s.abandoned ? kAbandonedRank
                        : static_cast<std::int64_t>(s.options.priority);
        if (rank > best) {
          best = rank;
          take = p;
          if (rank == kAbandonedRank) break;
        }
      }
      std::swap(pending_[(pending_head_ + take) % pending_.size()],
                pending_[pending_head_]);
      const std::size_t slot_index = pending_[pending_head_];
      pending_head_ = (pending_head_ + 1) % pending_.size();
      --pending_count_;
      Slot& slot = *slots_[slot_index];
      if (slot.abandoned) {  // cancelled while queued: never touch the series
        slot.abandoned = false;
        slot.pinned.reset();
        free_.push_back(slot_index);
        continue;
      }
      slot.state = Slot::State::kExecuting;
      batch.push_back(slot_index);
      if (config_.max_batch > 1) collect_batch(lock, batch);
      // Requests we inspected but did not claim stay pending; hand them to
      // another worker rather than leaving them for our next iteration.
      if (pending_count_ > 0) work_cv_.notify_one();
    }
    for (const std::size_t index : doomed) shed_slot(index);
    if (batch.size() == 1) {
      process(scratch, batch[0]);  // singleton fast path: unbatched datapath
    } else {
      process_batch(scratch, batch);
    }
  }
}

void InferenceServer::claim_batchmates(std::vector<std::size_t>& batch) {
  // Caller holds mutex_. The batch head defines the coalescing key; scan the
  // pending ring in FIFO order, claiming matches and compacting keepers
  // (abandoned slots are freed exactly like the dequeue path frees them).
  // Reading a queued slot's series shape here is safe: the slot is not
  // abandoned, so its future — and therefore the caller's series — is alive,
  // and abandonment transitions happen under this same mutex.
  const Slot& head = *slots_[batch.front()];
  const std::size_t count = pending_count_;
  std::size_t kept = 0;
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t index = pending_[(pending_head_ + p) % pending_.size()];
    Slot& slot = *slots_[index];
    if (slot.abandoned) {
      slot.abandoned = false;
      slot.pinned.reset();
      free_.push_back(index);
      continue;
    }
    if (slot.model_id == head.model_id &&
        slot.options.engine == head.options.engine &&
        slot.series->rows() == head.series->rows() &&
        slot.series->cols() == head.series->cols()) {
      if (batch.size() < config_.max_batch) {
        slot.state = Slot::State::kExecuting;
        batch.push_back(index);
        continue;
      }
      // Full batch: coalesce in priority order — a higher-priority match
      // displaces the lowest-priority claimed mate (never the head, which
      // is already dequeued), which returns to the pending ring.
      std::size_t worst = 0;  // 0 = none (head is not displaceable)
      for (std::size_t m = 1; m < batch.size(); ++m) {
        if (worst == 0 || slots_[batch[m]]->options.priority <
                              slots_[batch[worst]]->options.priority) {
          worst = m;
        }
      }
      if (worst != 0 && slots_[batch[worst]]->options.priority <
                            slot.options.priority) {
        Slot& displaced = *slots_[batch[worst]];
        displaced.state = Slot::State::kQueued;
        pending_[(pending_head_ + kept) % pending_.size()] = batch[worst];
        ++kept;
        slot.state = Slot::State::kExecuting;
        batch[worst] = index;
        continue;
      }
    }
    pending_[(pending_head_ + kept) % pending_.size()] = index;
    ++kept;
  }
  pending_count_ = kept;
}

void InferenceServer::collect_batch(std::unique_lock<std::mutex>& lock,
                                    std::vector<std::size_t>& batch) {
  claim_batchmates(batch);
  if (batch.size() >= config_.max_batch || stop_workers_) return;
  // Batch window: wait for more matching arrivals, re-scanning once per
  // admission (submit_seq_), until the batch fills or the window closes.
  // Shutdown launches the claimed batch immediately — claimed slots are
  // kExecuting and must drain through processing.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(config_.batch_window_us);
  std::uint64_t seen = submit_seq_;
  while (batch.size() < config_.max_batch) {
    const bool signaled = work_cv_.wait_until(lock, deadline, [&] {
      return stop_workers_ || submit_seq_ != seen;
    });
    if (!signaled || stop_workers_) break;  // window closed or shutting down
    seen = submit_seq_;
    claim_batchmates(batch);
  }
}

/// Fold one successful request's execution time into the service-time EWMA
/// that trains the submit-side predictive shed (alpha = 1/8: steady under
/// jitter, converged within ~a dozen requests after a model swap). Lock-free
/// and racy by design — a lost update skews the estimate by one sample.
void InferenceServer::note_service_time(std::uint64_t ns) {
  const std::uint64_t prev = ewma_service_ns_.load(std::memory_order_relaxed);
  const std::uint64_t next = prev == 0 ? ns : prev - prev / 8 + ns / 8;
  ewma_service_ns_.store(next, std::memory_order_relaxed);
}

/// Resolve `slot` as shed (kDeadlineExceeded) without executing it. The
/// caller must NOT hold mutex_. Whether the id resolves (in the registry,
/// or through the admission pin) feeds the stats-slot policy exactly like
/// the normal outcome path.
void InferenceServer::shed_slot(std::size_t slot_index) {
  Slot& slot = *slots_[slot_index];
  InferResult& result = slot.result;
  result.status = RequestStatus::kDeadlineExceeded;
  result.label = -1;
  result.logits.clear();  // keeps capacity: no allocation
  result.latency_us = static_cast<double>(slot.timer.elapsed_ns()) * 1e-3;
  const bool registered =
      slot.pinned != nullptr || registry_->get(slot.model_id) != nullptr;
  record_outcome(slot.model_id, result, registered);
  slot.pinned.reset();  // a parked slot must not extend the artifact's life
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot.state = Slot::State::kReady;
  }
  done_cv_.notify_all();
}

void InferenceServer::process_batch(WorkerScratch& scratch,
                                    const std::vector<std::size_t>& batch) {
  // Deadline shedding first: lanes whose budget ran out while queued (or
  // while the batch window was open) resolve as kDeadlineExceeded without
  // costing a vector lane.
  std::array<std::size_t, simd::kBatchedMaxLanes> live;
  std::size_t lanes = 0;
  for (const std::size_t index : batch) {
    if (past_deadline(slots_[index]->options.deadline_us,
                      slots_[index]->timer)) {
      shed_slot(index);
    } else {
      live[lanes++] = index;
    }
  }
  if (lanes == 0) return;
  if (lanes == 1) {
    process(scratch, live[0]);  // single-series path for a one-lane batch
    return;
  }
  std::array<const Matrix*, simd::kBatchedMaxLanes> series;
  for (std::size_t l = 0; l < lanes; ++l) {
    Slot& slot = *slots_[live[l]];
    slot.result.label = -1;
    slot.result.logits.clear();  // keeps capacity: no allocation
    series[l] = slot.series;
  }
  Slot& head = *slots_[live[0]];

  // One routing decision for the whole batch, made NOW (dequeue time): the
  // coalescing key guarantees every lane asked for the same model id and
  // engine variant, so all lanes serve the artifact this lookup returns —
  // bit-identical routing to the unbatched path, where each of these
  // requests would have resolved the same registry state. The head's
  // admission-time pin covers the evicted-while-queued window, like the
  // unbatched path.
  ModelArtifactPtr artifact = registry_->get(head.model_id);
  if (artifact == nullptr) artifact = head.pinned;
  const bool registered = artifact != nullptr;
  if (!registered) {
    for (std::size_t l = 0; l < lanes; ++l) {
      slots_[live[l]]->result.status = RequestStatus::kUnknownModel;
    }
  } else {
    try {
      // run() takes the reference, so nothing holds the model once a lane
      // reads ready: an evicted model is freed as soon as its last request
      // resolves.
      Timer service_timer;
      scratch.run(std::move(artifact), head.options.engine,
                  [&](const auto& datapath, auto&, auto& lane_scratch) {
                    lane_scratch.infer(datapath,
                                       std::span<const Matrix* const>(
                                           series.data(), lanes));
                    note_service_time(service_timer.elapsed_ns() / lanes);
                    for (std::size_t l = 0; l < lanes; ++l) {
                      InferResult& result = slots_[live[l]]->result;
                      const std::span<const double> logits =
                          lane_scratch.lane_logits(l);
                      result.logits.assign(logits.begin(), logits.end());
                      result.label = lane_scratch.lane_label(l);
                      result.status = RequestStatus::kOk;
                    }
                  });
    } catch (const CheckError&) {  // engine rejected the batch: client error
      for (std::size_t l = 0; l < lanes; ++l) {
        InferResult& result = slots_[live[l]]->result;
        result.logits.clear();
        result.label = -1;
        result.status = RequestStatus::kInvalidArgument;
      }
    } catch (const std::exception& e) {  // server-side failure: not the client
      log_error("batched inference for model '", head.model_id,
                "' failed internally: ", e.what());
      for (std::size_t l = 0; l < lanes; ++l) {
        InferResult& result = slots_[live[l]]->result;
        result.logits.clear();
        result.label = -1;
        result.status = RequestStatus::kInternalError;
      }
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    Slot& slot = *slots_[live[l]];
    slot.result.latency_us = static_cast<double>(slot.timer.elapsed_ns()) * 1e-3;
    record_outcome(slot.model_id, slot.result, registered);
    slot.pinned.reset();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t l = 0; l < lanes; ++l) {
      slots_[live[l]]->state = Slot::State::kReady;
    }
  }
  done_cv_.notify_all();
}

void InferenceServer::process(WorkerScratch& scratch, std::size_t slot_index) {
  Slot& slot = *slots_[slot_index];
  // Deadline shedding before any engine work: a request that is already
  // late resolves typed instead of burning engine time serving an answer
  // nobody is waiting for.
  if (past_deadline(slot.options.deadline_us, slot.timer)) {
    shed_slot(slot_index);
    return;
  }
  InferResult& result = slot.result;
  result.label = -1;
  result.logits.clear();  // keeps capacity: no allocation in steady state

  // Per-request routing: resolve the id against the registry NOW, so a
  // hot-swap between submit and execution serves the newest artifact, and
  // the shared_ptr keeps whichever artifact we got alive through inference.
  // An empty lookup falls back to the admission-time pin: eviction while
  // the request sat queued must not unregister an accepted request.
  ModelArtifactPtr artifact = registry_->get(slot.model_id);
  if (artifact == nullptr) artifact = slot.pinned;
  const bool registered = artifact != nullptr;
  if (!registered) {
    result.status = RequestStatus::kUnknownModel;
  } else {
    try {
      // The variant resolves against the artifact per request, like the
      // id: kQuantized routes to the artifact's fixed-point twin
      // (kInvalidArgument via CheckError when the artifact carries none).
      // run() takes the reference, so nothing holds the model once the
      // request reads ready: an evicted model is freed as soon as its last
      // request resolves.
      Timer service_timer;
      scratch.run(std::move(artifact), slot.options.engine,
                  [&](const auto& datapath, auto& series_scratch, auto&) {
                    const std::span<const double> logits =
                        series_scratch.infer(datapath, *slot.series);
                    note_service_time(service_timer.elapsed_ns());
                    result.logits.assign(logits.begin(), logits.end());
                  });
      result.label = static_cast<int>(
          std::max_element(result.logits.begin(), result.logits.end()) -
          result.logits.begin());
      result.status = RequestStatus::kOk;
    } catch (const CheckError&) {  // engine rejected the series: client error
      result.logits.clear();
      result.label = -1;
      result.status = RequestStatus::kInvalidArgument;
    } catch (const std::exception& e) {  // server-side failure: not the client
      log_error("inference for model '", slot.model_id,
                "' failed internally: ", e.what());
      result.logits.clear();
      result.label = -1;
      result.status = RequestStatus::kInternalError;
    }
  }
  result.latency_us = static_cast<double>(slot.timer.elapsed_ns()) * 1e-3;
  record_outcome(slot.model_id, result, registered);
  slot.pinned.reset();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot.state = Slot::State::kReady;
  }
  // Wakes result waiters and any future destructor blocked in release_slot.
  done_cv_.notify_all();
}

// ---- InferenceServer: futures plumbing -------------------------------------

void InferenceServer::release_slot(std::size_t slot_index) {
  std::unique_lock<std::mutex> lock(mutex_);
  Slot& slot = *slots_[slot_index];
  switch (slot.state) {
    case Slot::State::kReady:
      free_.push_back(slot_index);
      break;
    case Slot::State::kQueued:
      slot.abandoned = true;  // worker cancels it without reading the series
      break;
    case Slot::State::kExecuting:
      // The worker is inside infer(*series): block until it finishes so the
      // caller may destroy the series right after dropping the future.
      done_cv_.wait(lock,
                    [&] { return slot.state == Slot::State::kReady; });
      free_.push_back(slot_index);
      break;
  }
}

bool InferenceServer::slot_ready(std::size_t slot_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_[slot_index]->state == Slot::State::kReady;
}

void InferenceServer::wait_slot(std::size_t slot_index) const {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return slots_[slot_index]->state == Slot::State::kReady;
  });
}

const InferResult& InferenceServer::slot_result(std::size_t slot_index) const {
  return slots_[slot_index]->result;  // stable once ready (wait_slot first)
}

// ---- InferenceServer: sync batch path --------------------------------------

std::vector<int> InferenceServer::classify_batch(std::string_view model_id,
                                                 std::span<const Matrix> series,
                                                 unsigned threads,
                                                 RequestOptions options) {
  const ModelArtifactPtr artifact = registry_->get(model_id);
  DFR_CHECK_MSG(artifact != nullptr,
                "unknown model id: " + std::string(model_id));
  // The local `artifact` shared_ptr keeps a borrowed twin alive for the
  // duration of the fan-out.
  std::vector<int> out =
      options.engine == EngineVariant::kQuantized
          ? dfr::classify_batch(*quantized_twin(artifact), series, threads)
          : dfr::classify_batch(artifact, series, threads);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (StatsEntry* entry = stats_entry_for(model_id, /*allow_create=*/true)) {
      entry->completed += out.size();
    }
  }
  return out;
}

// ---- InferenceServer: stats ------------------------------------------------

InferenceServer::StatsEntry* InferenceServer::stats_entry_for(
    std::string_view model_id, bool allow_create) {
  auto it = stats_.find(model_id);
  if (it == stats_.end()) {
    if (!allow_create) return nullptr;  // unregistered id: serve, don't count
    if (stats_.size() >= config_.max_tracked_models) {
      // The cap forces this registered id to go uncounted; surface the loss
      // instead of dropping it invisibly (export_stats / dropped_stats()).
      ++dropped_stats_;
      return nullptr;
    }
    it = stats_.emplace(std::string(model_id), StatsEntry{}).first;
    it->second.latencies.reserve(config_.latency_window);
  }
  return &it->second;
}

void InferenceServer::record_outcome(std::string_view model_id,
                                     const InferResult& result,
                                     bool id_is_registered) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  // Only registered ids may claim a tracking slot (bogus ids must not starve
  // real models); an existing entry keeps counting even after eviction.
  StatsEntry* entry = stats_entry_for(model_id, id_is_registered);
  if (entry == nullptr) return;
  if (result.status == RequestStatus::kOk) {
    ++entry->completed;
  } else if (result.status == RequestStatus::kDeadlineExceeded) {
    ++entry->shed;  // dropped unexecuted, not a serving error
  } else {
    ++entry->errors;
  }
  // Error results resolve without a full inference; their near-zero
  // latencies would displace real samples and mask regressions.
  if (config_.latency_window > 0 && result.status == RequestStatus::kOk) {
    if (entry->latencies.size() < config_.latency_window) {
      entry->latencies.push_back(result.latency_us);  // within reserve: no alloc
    } else {
      entry->latencies[entry->next] = result.latency_us;
    }
    entry->next = (entry->next + 1) % config_.latency_window;
  }
}

void InferenceServer::record_rejection(std::string_view model_id) {
  const bool registered = registry_->get(model_id) != nullptr;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (StatsEntry* entry = stats_entry_for(model_id, registered)) {
    ++entry->rejected;
  }
}

void InferenceServer::record_submit_shed(std::string_view model_id) {
  const bool registered = registry_->get(model_id) != nullptr;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (StatsEntry* entry = stats_entry_for(model_id, registered)) {
    ++entry->shed;  // same counter as queue/dequeue sheds: one SLO signal
  }
}

ModelServingStats InferenceServer::stats(std::string_view model_id) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  const auto it = stats_.find(model_id);
  if (it == stats_.end()) return {};
  const StatsEntry& entry = it->second;
  return ModelServingStats{entry.completed, entry.errors, entry.rejected,
                           entry.shed,
                           entry.latencies.empty() ? Summary{}
                                                   : summarize(entry.latencies)};
}

std::vector<std::pair<std::string, ModelServingStats>> InferenceServer::stats()
    const {
  std::vector<std::pair<std::string, ModelServingStats>> out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out.reserve(stats_.size());
    for (const auto& [id, entry] : stats_) {
      out.emplace_back(
          id, ModelServingStats{entry.completed, entry.errors, entry.rejected,
                                entry.shed,
                                entry.latencies.empty()
                                    ? Summary{}
                                    : summarize(entry.latencies)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::uint64_t InferenceServer::dropped_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return dropped_stats_;
}

void InferenceServer::export_stats(std::ostream& os) const {
  // One `name{labels} value` line per metric (Prometheus text exposition
  // shape); stats() already sorts by id, so scrapes diff cleanly.
  const auto per_model = stats();
  for (const auto& [id, s] : per_model) {
    os << "dfr_requests_total{model=\"" << id << "\",outcome=\"completed\"} "
       << s.completed << '\n';
    os << "dfr_requests_total{model=\"" << id << "\",outcome=\"error\"} "
       << s.errors << '\n';
    os << "dfr_requests_total{model=\"" << id << "\",outcome=\"rejected\"} "
       << s.rejected << '\n';
    os << "dfr_requests_total{model=\"" << id << "\",outcome=\"shed\"} "
       << s.shed << '\n';
    if (s.latency_us.count > 0) {
      os << "dfr_request_latency_us{model=\"" << id << "\",quantile=\"0.5\"} "
         << s.latency_us.p50 << '\n';
      os << "dfr_request_latency_us{model=\"" << id << "\",quantile=\"0.9\"} "
         << s.latency_us.p90 << '\n';
      os << "dfr_request_latency_us{model=\"" << id << "\",quantile=\"0.99\"} "
         << s.latency_us.p99 << '\n';
    }
  }
  os << "dfr_stats_dropped_total " << dropped_stats() << '\n';
}

}  // namespace dfr::serve
