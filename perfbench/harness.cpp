// dfr_perfbench: the measuring half of the benchmark. perfbench/run.py is
// the deciding half: it picks the rates, counts the windows, applies the
// validity rules and computes the knee; this program owns the system under
// test and the clocks. It sets up one workload and answers commands read one
// per line on stdin, each with exactly one JSON line on stdout:
//
//   setup [k]                    (re)build the workload's system -> setup_s;
//                                with k, on the k-th CPU it may use alone
//   repeat <traced>              tune: one fit_multistart + one 8x8 grid level
//   window <qps> <secs> <seed> <traced>
//                                serving: one open-loop Poisson window
//   saturate <n> <inflight> <seed>
//                                serving: n requests in a closed loop
//   replay                       time the workload's stage calls directly
//   probe                        time the host-speed probe -> probe_us
//   rss                          peak RSS in MiB, shard children included
//   finish                       write the spans, stop shards, exit
//
// Every latency is measured from the request's scheduled arrival, so a late
// generator or a busy sender counts against the system (coordinated-omission
// correction); generator lateness is reported separately so run.py can
// refuse a window whose generator could not keep its schedule. Logs go to
// stderr; stdout carries only replies.
//
//   dfr_perfbench <tune|serve|serve-fleet|serve-routed> --seed N
//                 --run-dir DIR [--shard-bin PATH]

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/preprocess.hpp"
#include "data/specs.hpp"
#include "data/synth.hpp"
#include "dfr/backprop.hpp"
#include "dfr/features.hpp"
#include "dfr/grid_search.hpp"
#include "dfr/model_io.hpp"
#include "dfr/ridge.hpp"
#include "dfr/trainer.hpp"
#include "serve/artifact_store.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/simd_kernels.hpp"
#include "serve/synth.hpp"
#include "serve/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace dfr;
using Clock = std::chrono::steady_clock;

// Workload shapes: the paper's Nx=30 and the serve/synth.hpp defaults.
// Training uses all four vCPUs of the reference host because
// single-threaded fit times drifted far more between runs; results are
// bit-identical for any thread count. Two senders, not four, drive the
// routed tier so that senders plus shard workers stay within four CPUs.
constexpr unsigned kTuneThreads = 4;
constexpr std::size_t kGridDivs = 8;
constexpr std::size_t kSeriesSteps = 64;
constexpr std::size_t kSeriesPool = 64;
constexpr std::size_t kRoutedShards = 2;
constexpr std::size_t kRoutedSenders = 2;
constexpr std::size_t kBatchLanes = 8;
// Three traced serve-fleet rounds record ~1.2M spans (4 per request).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 21;

const Clock::time_point g_epoch = Clock::now();

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Busy-wait until `when`; returns the time the wait ended.
Clock::time_point spin_until(Clock::time_point when) {
  Clock::time_point now = Clock::now();
  while (now < when) now = Clock::now();
  return now;
}

// ---- replies -----------------------------------------------------------------

/// One JSON object on one line. Non-finite numbers become null.
class Reply {
 public:
  Reply& num(const char* key, double value) {
    name(key);
    append(value, "%.17g");
    return *this;
  }
  Reply& count(const char* key, std::uint64_t value) {
    name(key);
    text_ += std::to_string(value);
    return *this;
  }
  Reply& str(const char* key, const std::string& value) {
    name(key);
    text_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') text_ += '\\';
      text_ += (c == '\n' || c == '\t') ? ' ' : c;
    }
    text_ += '"';
    return *this;
  }
  Reply& arr(const char* key, const std::vector<double>& values) {
    name(key);
    text_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text_ += ',';
      append(values[i], "%.3f");
    }
    text_ += ']';
    return *this;
  }
  void send() {
    text_ += "}\n";
    std::fwrite(text_.data(), 1, text_.size(), stdout);
    std::fflush(stdout);
    text_ = "{";
  }

 private:
  void name(const char* key) {
    if (text_.size() > 1) text_ += ',';
    text_ += '"';
    text_ += key;
    text_ += "\":";
  }
  void append(double value, const char* format) {
    if (!std::isfinite(value)) {
      text_ += "null";
      return;
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), format, value);
    text_ += buffer;
  }

  std::string text_ = "{";
};

// ---- spans -------------------------------------------------------------------

enum SpanName : std::uint8_t {
  kSpanRequest,
  kSpanLag,
  kSpanSenderWait,
  kSpanStoreGet,
  kSpanSubmit,
  kSpanRouterInfer,
  kSpanTuneRepeat,
  kSpanFitMultistart,
  kSpanGridLevel,
  kSpanReplayForward,
  kSpanReplayBackward,
  kSpanReplayFeatures,
  kSpanReplayRidge,
  kSpanReplayEngineSingle,
  kSpanReplayEngineBatched,
  kSpanReplayEncode,
  kSpanReplayDecode,
  kSpanNameCount,
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "request",
    "loadgen.lag",
    "loadgen.sender_wait",
    "artifact_store.get",
    "server.submit",
    "router.infer",
    "tune.repeat",
    "trainer.fit_multistart",
    "grid_search.run_grid_level",
    "backprop.run_forward_truncated",
    "backprop.backprop_through_dprr",
    "features.compute_features",
    "ridge.sweep_ridge",
    "engine.single_infer",
    "engine.batched_infer",
    "wire.encode_request",
    "wire.decode_response",
};

/// Spans in preallocated memory, written out once when the run ends. A slot
/// can be reserved before its times are known (a request's span is reserved
/// at dispatch so its children can name it as parent, and filled at
/// completion). Full buffer: further spans are counted as dropped.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  std::int32_t reserve() {
    const std::size_t id = next_.fetch_add(1, std::memory_order_relaxed);
    if (id >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return -1;
    }
    return static_cast<std::int32_t>(id);
  }

  void set(std::int32_t id, SpanName name, std::int32_t parent,
           std::uint64_t seq, Clock::time_point start, Clock::time_point end,
           double attr = 0.0) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)] =
        Span{us_between(g_epoch, start), us_between(g_epoch, end), attr, seq,
             parent, name};
  }

  std::int32_t add(SpanName name, std::int32_t parent, std::uint64_t seq,
                   Clock::time_point start, Clock::time_point end,
                   double attr = 0.0) {
    const std::int32_t id = reserve();
    set(id, name, parent, seq, start, end, attr);
    return id;
  }

  [[nodiscard]] std::size_t size() const {
    return std::min(next_.load(), spans_.size());
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

  /// Tab-separated: id, name, parent id (-1 = root), seq, start_us, end_us,
  /// attr (program-reported latency_us, or a count), relative to process
  /// start.
  void write(const std::string& path) const {
    std::ofstream out(path);
    DFR_CHECK_MSG(out.good(), "cannot write spans to " + path);
    out << "id\tname\tparent\tseq\tstart_us\tend_us\tattr\n";
    char line[160];
    for (std::size_t i = 0; i < size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line), "%zu\t%s\t%d\t%llu\t%.3f\t%.3f\t%.3f\n",
                    i, kSpanNames[s.name], s.parent,
                    static_cast<unsigned long long>(s.seq), s.start_us,
                    s.end_us, s.attr);
      out << line;
    }
  }

 private:
  struct Span {
    double start_us = 0.0;
    double end_us = 0.0;
    double attr = 0.0;
    std::uint64_t seq = 0;
    std::int32_t parent = -1;
    std::uint8_t name = 0;
  };

  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

std::unique_ptr<SpanLog> g_spans;

/// The span log for a traced command (allocated on first use), else null.
SpanLog* tracer(bool traced) {
  if (!traced) return nullptr;
  if (!g_spans) g_spans = std::make_unique<SpanLog>(kSpanCapacity);
  return g_spans.get();
}

// ---- process facts -------------------------------------------------------------

/// Peak resident set (VmHWM) of `pid` in KiB; 0 when unreadable.
double peak_rss_kib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

/// Where the serving workloads' threads run. The in-process generator spins
/// through a whole window, so it gets a CPU of its own (`generator`), kept
/// free of idle keepers: a SCHED_IDLE thread still takes a sliver of a busy
/// CPU in slices of milliseconds, and sharing one made the generator up to
/// 2 ms late. Everything else (server workers, harvester, shards, keepers)
/// runs on `service`. With fewer than two CPUs nothing is reserved.
struct CpuPlan {
  cpu_set_t service;
  int generator = -1;

  static CpuPlan make(bool reserve_generator) {
    CpuPlan plan;
    CPU_ZERO(&plan.service);
    DFR_CHECK_MSG(::sched_getaffinity(0, sizeof(plan.service), &plan.service) == 0,
                  "sched_getaffinity failed");
    if (reserve_generator && CPU_COUNT(&plan.service) >= 2) {
      for (int cpu = 0; cpu < CPU_SETSIZE && plan.generator < 0; ++cpu) {
        if (CPU_ISSET(cpu, &plan.service)) plan.generator = cpu;
      }
      CPU_CLR(plan.generator, &plan.service);
    }
    return plan;
  }
};

CpuPlan g_cpus;  // set in run() before any thread starts

void pin_self(const cpu_set_t& cpus) {
  ::pthread_setaffinity_np(::pthread_self(), sizeof(cpus), &cpus);
}

/// The CPU set holding only the k-th CPU of `cpus` (k wraps around).
cpu_set_t nth_cpu(const cpu_set_t& cpus, std::size_t k) {
  k %= static_cast<std::size_t>(CPU_COUNT(&cpus));
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &cpus) && k-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  return one;
}

/// Pins the calling thread to the generator CPU for its lifetime.
class OnGeneratorCpu {
 public:
  OnGeneratorCpu() {
    if (g_cpus.generator < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(g_cpus.generator, &one);
    pin_self(one);
  }
  ~OnGeneratorCpu() { pin_self(g_cpus.service); }
  OnGeneratorCpu(const OnGeneratorCpu&) = delete;
  OnGeneratorCpu& operator=(const OnGeneratorCpu&) = delete;
};

/// One SCHED_IDLE spinning thread pinned to each service CPU. They hold no
/// work and give way to every other thread at once; they only keep idle
/// vCPUs from halting. On the reference VM a halted vCPU took 20-100 us to
/// wake, and that cost moved with the host's load from minute to minute:
/// with keepers the serve p50 at 6000/s held at 61-68 us across runs,
/// without them it ranged over 76-167 us.
class IdleKeepers {
 public:
  IdleKeepers() {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &g_cpus.service)) {
        threads_.emplace_back([this, cpu] { spin(cpu); });
      }
    }
  }
  ~IdleKeepers() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdleKeepers(const IdleKeepers&) = delete;
  IdleKeepers& operator=(const IdleKeepers&) = delete;

 private:
  void spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pin_self(one);
    const sched_param param{};
    // Without SCHED_IDLE the keeper would compete with the system under test.
    if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) != 0) return;
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Host-speed probe: four independent chains of 64-bit multiply-adds that
/// call no dfrlib code and touch no memory. They keep the core's multiplier
/// busy, so their time follows the core's clock and whatever shares the
/// core (a hyperthread sibling among them). The host's speed moved by up to
/// 1.7x within minutes on the reference VM with steal near 0; run.py takes
/// this probe between rounds to tell such moves apart. The fastest of five
/// passes, so one preemption does not count; on the generator CPU when
/// there is one, away from the idle keepers.
double probe_us() {
  const OnGeneratorCpu pinned;
  std::uint64_t x[4] = {1, 2, 3, 4};
  double best = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < (1u << 19); ++i) {
      for (std::uint64_t& v : x) v = v * 6364136223846793005ULL + 1442695040888963407ULL;
      // Keeps every step, in general registers (no vectorizing).
      __asm__ __volatile__("" : "+r"(x[0]), "+r"(x[1]), "+r"(x[2]), "+r"(x[3]));
    }
    best = std::min(best, us_between(t0, Clock::now()));
  }
  return best;
}

// ---- inputs --------------------------------------------------------------------

/// Poisson arrival offsets (seconds) at `qps` over `seconds`.
std::vector<double> poisson_arrivals(double qps, double seconds,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(qps * seconds * 1.2) + 16);
  for (double t = -std::log(1.0 - rng.uniform()) / qps; t < seconds;
       t += -std::log(1.0 - rng.uniform()) / qps) {
    arrivals.push_back(t);
  }
  return arrivals;
}

struct Request {
  std::uint32_t model = 0;
  std::uint32_t series = 0;
};

/// Per-arrival (model, series) picks: uniform or Zipf(zipf_s) over models
/// (rank 0 hottest), uniform over the series pool.
std::vector<Request> make_requests(std::size_t n, std::size_t models,
                                   double zipf_s, std::uint64_t seed) {
  std::vector<double> cdf(models);
  double total = 0.0;
  for (std::size_t k = 0; k < models; ++k) {
    total += zipf_s > 0.0 ? std::pow(static_cast<double>(k + 1), -zipf_s) : 1.0;
    cdf[k] = total;
  }
  Rng rng(hash_combine(seed, 0x5e1ec7));
  std::vector<Request> requests(n);
  for (Request& r : requests) {
    const double u = rng.uniform() * total;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    r.model = static_cast<std::uint32_t>(std::min(rank, models - 1));
    r.series = static_cast<std::uint32_t>(rng.next_u64() % kSeriesPool);
  }
  return requests;
}

serve::SynthModelSpec model_spec(std::uint64_t seed) {
  serve::SynthModelSpec spec;  // V=2, Ny=4, Nx=30
  spec.seed = seed;
  spec.quantized = false;  // float traffic only; skips the calibration
  return spec;
}

std::vector<Matrix> make_series_pool(std::uint64_t seed) {
  std::vector<Matrix> pool;
  for (std::size_t i = 0; i < kSeriesPool; ++i) {
    pool.push_back(serve::make_synth_series(kSeriesSteps, 2,
                                            hash_combine(seed, 7000 + i)));
  }
  return pool;
}

/// Expected answers: a direct make_simd_engine(artifact) call per (model,
/// series) pair, computed on first use and cached. Routed and micro-batched
/// results must match it bit for bit (test_distributed / test_batched pin
/// the same property).
class Oracle {
 public:
  void reset(const std::vector<ModelArtifactPtr>& artifacts) {
    engines_.clear();
    for (const ModelArtifactPtr& a : artifacts) {
      engines_.push_back(make_simd_engine(a));
    }
    logits_.assign(artifacts.size() * kSeriesPool, Vector{});
  }

  bool matches(const Request& r, const std::vector<Matrix>& pool, int label,
               std::span<const double> logits) {
    Vector& expected = logits_[r.model * kSeriesPool + r.series];
    if (expected.empty()) {
      const std::span<const double> out = engines_[r.model].infer(pool[r.series]);
      expected.assign(out.begin(), out.end());
    }
    const auto best = std::max_element(expected.begin(), expected.end());
    return logits.size() == expected.size() &&
           label == static_cast<int>(best - expected.begin()) &&
           std::memcmp(logits.data(), expected.data(),
                       expected.size() * sizeof(double)) == 0;
  }

 private:
  std::vector<SimdInferenceEngine> engines_;
  std::vector<Vector> logits_;
};

/// Outcome tally shared by the serving windows. A request that is neither
/// ok (completed and bit-identical to the oracle), rejected nor shed failed
/// some other way; run.py counts every request that is not ok as failed.
struct Tally {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;  // queue full / shutdown / unavailable
  std::uint64_t shed = 0;      // deadline exceeded

  void put(Reply& reply, std::size_t sent) const {
    reply.count("sent", sent)
        .count("ok", ok)
        .count("rejected", rejected)
        .count("shed", shed);
  }
};

// ---- workloads -------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the system from scratch (tearing down any previous one); returns
  /// seconds from start to ready.
  virtual double setup() = 0;
  /// `repeat` / `window` / `replay`.
  virtual void run(const std::vector<std::string>& command, Reply& reply) = 0;
  /// Peak RSS in KiB of processes other than this one (shard children).
  virtual double children_peak_rss_kib() { return 0.0; }
  virtual void stop() {}
};

/// tune: the paper's claim. bp = Trainer::fit_multistart over the default
/// restarts; gs = one 8x8 run_grid_level. No serving code beyond the scalar
/// FloatDatapath that compute_features drives.
class TuneWorkload final : public Workload {
 public:
  explicit TuneWorkload(std::uint64_t seed) : seed_(seed) {}

  double setup() override {
    const Clock::time_point start = Clock::now();
    SynthConfig synth;
    synth.seed = seed_;
    data_ = generate_synthetic(*find_spec("ECG"), synth);  // T=151 V=2 Ny=2
    standardize_pair(data_);
    return seconds_since(start);
  }

  void run(const std::vector<std::string>& command, Reply& reply) override {
    if (command[0] == "repeat" && command.size() == 2) {
      repeat(command[1] == "1", reply);
    } else if (command[0] == "replay") {
      replay(reply);
    } else {
      throw CheckError("tune: unknown command " + command[0]);
    }
  }

 private:
  void repeat(bool traced, Reply& reply) {
    SpanLog* spans = tracer(traced);
    TrainerConfig train_config;
    train_config.threads = kTuneThreads;
    train_config.seed = seed_;
    const std::vector<DfrParams> restarts = Trainer::default_restarts();
    const Clock::time_point t0 = Clock::now();
    TrainResult model =
        Trainer(train_config).fit_multistart(data_.train, restarts);
    const Clock::time_point t1 = Clock::now();
    const double bp_acc = evaluate_accuracy(model, data_.test);

    GridSearchConfig grid_config;
    grid_config.threads = kTuneThreads;
    grid_config.seed = seed_;
    const Clock::time_point t2 = Clock::now();
    const GridLevelResult level =
        run_grid_level(grid_config, data_.train, data_.test, kGridDivs);
    const Clock::time_point t3 = Clock::now();
    const auto valid = static_cast<std::uint64_t>(
        std::count_if(level.candidates.begin(), level.candidates.end(),
                      [](const GridCandidate& c) { return c.valid; }));

    if (spans != nullptr) {
      const std::int32_t parent =
          spans->add(kSpanTuneRepeat, -1, repeats_, t0, t3);
      spans->add(kSpanFitMultistart, parent, repeats_, t0, t1,
                 static_cast<double>(restarts.size()));
      spans->add(kSpanGridLevel, parent, repeats_, t2, t3,
                 static_cast<double>(level.candidates.size()));
    }
    ++repeats_;
    reply.num("bp_s", std::chrono::duration<double>(t1 - t0).count())
        .num("gs_s", std::chrono::duration<double>(t3 - t2).count())
        .num("bp_acc", bp_acc)
        .num("gs_acc", level.best().test_accuracy)
        .num("sgd_s", model.sgd_seconds)
        .num("ridge_s", model.ridge_seconds)
        .count("skipped_updates", model.skipped_updates)
        .count("candidates", level.candidates.size())
        .count("valid", valid);
    model_ = std::move(model);
  }

  /// Stage calls at the trained (A, B): forward and backward per train
  /// sample, batch features, and the 4-beta ridge sweep.
  void replay(Reply& reply) {
    DFR_CHECK_MSG(model_.has_value(), "tune: replay needs a repeat first");
    SpanLog* spans = tracer(true);
    const TrainResult& m = *model_;
    const Dataset& train = data_.train;
    const ModularReservoir reservoir(m.mask.nodes(), m.nonlinearity);
    std::vector<double> forward_us, backward_us, features_us, ridge_s;
    std::uint64_t state_values = 0;
    double sink = 0.0;
    for (std::size_t i = 0; i < train.size(); ++i) {
      const Sample& sample = train[i];
      const Clock::time_point t0 = Clock::now();
      TruncatedForward fwd =
          run_forward_truncated(reservoir, m.params, m.mask, sample.series, 1);
      const Clock::time_point t1 = Clock::now();
      const double time_scale = dprr_time_scale(sample.series.rows());
      scale(fwd.dprr, time_scale);
      OutputLayer::Backward out = m.readout.backward(fwd.dprr, sample.label);
      scale(out.dfeatures, time_scale);
      const Clock::time_point t2 = Clock::now();
      const ReservoirGradients grads =
          backprop_through_dprr(reservoir, m.params, fwd.tail_states,
                                fwd.tail_j, out.dfeatures, fwd.tail_j.rows());
      const Clock::time_point t3 = Clock::now();
      sink += grads.da + grads.db;
      state_values = fwd.stored_state_values();
      forward_us.push_back(us_between(t0, t1));
      backward_us.push_back(us_between(t2, t3));
      spans->add(kSpanReplayForward, -1, i, t0, t1);
      spans->add(kSpanReplayBackward, -1, i, t2, t3);
    }
    Rng split_rng(seed_);
    const auto [fit_split, val_split] = train.stratified_split(0.8, split_rng);
    const FeatureMatrix fit = compute_features(reservoir, m.params, m.mask,
                                               fit_split, RepresentationKind::kDprr);
    const FeatureMatrix val = compute_features(reservoir, m.params, m.mask,
                                               val_split, RepresentationKind::kDprr);
    for (int r = 0; r < 5; ++r) {
      const Clock::time_point t0 = Clock::now();
      const FeatureMatrix all = compute_features(
          reservoir, m.params, m.mask, train, RepresentationKind::kDprr);
      const Clock::time_point t1 = Clock::now();
      const RidgeSweep sweep = sweep_ridge(fit, val, train.num_classes());
      const Clock::time_point t2 = Clock::now();
      sink += all.features(0, 0) + sweep.best().beta;
      features_us.push_back(us_between(t0, t1) /
                            static_cast<double>(train.size()));
      ridge_s.push_back(std::chrono::duration<double>(t2 - t1).count());
      spans->add(kSpanReplayFeatures, -1, static_cast<std::uint64_t>(r), t0,
                 t1, static_cast<double>(train.size()));
      spans->add(kSpanReplayRidge, -1, static_cast<std::uint64_t>(r), t1, t2);
    }
    reply.arr("forward_us", forward_us)
        .arr("backward_us", backward_us)
        .arr("features_series_us", features_us)
        .arr("ridge_sweep_s", ridge_s)
        .count("state_values", state_values)
        .num("sink", sink);
  }

  std::uint64_t seed_;
  std::uint64_t repeats_ = 0;
  DatasetPair data_;
  std::optional<TrainResult> model_;
};

/// Engine replay shared by the serving workloads: single-series SIMD
/// (default dispatch) in a tight loop and, optionally, the batched engine
/// at 8 lanes (reported per series).
void replay_engines(const ModelArtifactPtr& artifact,
                    const std::vector<Matrix>& pool, bool batched,
                    Reply& reply) {
  SpanLog* spans = tracer(true);
  SimdInferenceEngine single = make_simd_engine(artifact);
  double sink = 0.0;
  for (const Matrix& s : pool) sink += single.infer(s)[0];  // warm
  std::vector<double> single_us;
  for (std::size_t i = 0; i < 30 * kSeriesPool; ++i) {
    const Clock::time_point t0 = Clock::now();
    sink += single.infer(pool[i % kSeriesPool])[0];
    const Clock::time_point t1 = Clock::now();
    single_us.push_back(us_between(t0, t1));
    spans->add(kSpanReplayEngineSingle, -1, i, t0, t1);
  }
  reply.arr("engine_single_us", single_us);
  if (batched) {
    BatchedInferenceEngine engine = make_batched_engine(artifact, kBatchLanes);
    std::vector<const Matrix*> lanes(kBatchLanes);
    std::vector<double> per_series_us;
    for (std::size_t i = 0; i < 4 * kSeriesPool; ++i) {
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        lanes[l] = &pool[(i * kBatchLanes + l) % kSeriesPool];
      }
      const Clock::time_point t0 = Clock::now();
      engine.infer(lanes);
      const Clock::time_point t1 = Clock::now();
      sink += engine.lane_logits(0)[0];
      if (i >= kSeriesPool / kBatchLanes) {  // skip the warm-up calls
        per_series_us.push_back(us_between(t0, t1) / kBatchLanes);
        spans->add(kSpanReplayEngineBatched, -1, i, t0, t1,
                   static_cast<double>(kBatchLanes));
      }
    }
    reply.arr("engine_batched_us", per_series_us);
  }
  reply.num("sink", sink);
}

/// In-process serving: `serve` (2 resident models, uniform mix, one request
/// per engine call) and `serve-fleet` (32 mmap'd .dfrm models behind an
/// LRU ArtifactStore capped at 24, Zipf 1.2 mix, micro-batching on).
class InprocWorkload final : public Workload {
 public:
  struct Shape {
    std::size_t models = 2;
    double zipf_s = 0.0;        // 0 = uniform mix
    std::size_t max_batch = 1;  // 1 = micro-batching off
    std::size_t batch_window_us = 0;
    std::size_t resident = 0;   // fleet: LRU cap as a model count; 0 = no store
  };

  InprocWorkload(Shape shape, std::uint64_t seed, std::string run_dir)
      : shape_(shape), seed_(seed), fleet_dir_(std::move(run_dir) + "/fleet") {}

  ~InprocWorkload() override { teardown(); }

  double setup() override {
    teardown();
    const Clock::time_point start = Clock::now();
    ids_.clear();
    artifacts_.clear();
    for (std::size_t i = 0; i < shape_.models; ++i) {
      ids_.push_back("m" + std::to_string(i));
      artifacts_.push_back(
          serve::make_synth_artifact(ids_[i], model_spec(seed_ + i)));
    }
    pool_ = make_series_pool(seed_);
    registry_ = std::make_unique<serve::ModelRegistry>();
    if (shape_.resident > 0) {
      // Real .dfrm v2 files, so the store's mmap fault path is measured.
      ::mkdir(fleet_dir_.c_str(), 0755);
      std::size_t file_bytes = 0;
      for (std::size_t i = 0; i < shape_.models; ++i) {
        const ModelArtifact& a = *artifacts_[i];
        TrainResult trained;
        trained.params = a.params;
        trained.mask = a.mask;
        trained.nonlinearity = a.nonlinearity;
        trained.readout = a.readout;
        trained.chosen_beta = a.chosen_beta;
        save_model(trained, path_of(i), 2);
        struct stat st {};
        DFR_CHECK_MSG(::stat(path_of(i).c_str(), &st) == 0,
                      "cannot stat " + path_of(i));
        file_bytes = static_cast<std::size_t>(st.st_size);
      }
      serve::ArtifactStoreConfig store_config;
      store_config.max_resident_bytes = shape_.resident * file_bytes;
      store_ = std::make_unique<serve::ArtifactStore>(*registry_, store_config);
      for (std::size_t i = 0; i < shape_.models; ++i) store_->add(ids_[i], path_of(i));
    } else {
      for (const ModelArtifactPtr& a : artifacts_) registry_->register_model(a);
    }
    serve::ServerConfig config;
    config.workers = 1;
    // Deeper than the most any window can send (45000/s for 0.1 s), so a
    // window past the knee or a stalled harvester becomes queueing latency,
    // which the knee search sees, never a rejection, which would count as a
    // failed operation.
    config.queue_capacity = 8192;
    config.max_batch = shape_.max_batch;
    config.batch_window_us = shape_.batch_window_us;
    server_ = std::make_unique<serve::InferenceServer>(*registry_, config);
    const double seconds = seconds_since(start);
    oracle_.reset(artifacts_);
    return seconds;
  }

  void run(const std::vector<std::string>& command, Reply& reply) override {
    if (command[0] == "window" && command.size() == 5) {
      window(std::stod(command[1]), std::stod(command[2]),
             std::stoull(command[3]), command[4] == "1", reply);
    } else if (command[0] == "saturate" && command.size() == 4) {
      saturate(std::stoull(command[1]), std::stoull(command[2]),
               std::stoull(command[3]), reply);
    } else if (command[0] == "replay") {
      replay_engines(artifacts_[0], pool_, shape_.max_batch > 1, reply);
    } else {
      throw CheckError("serve: unknown command " + command[0]);
    }
  }

  void stop() override { teardown(); }

 private:
  std::string path_of(std::size_t i) const {
    return fleet_dir_ + "/" + ids_[i] + ".dfrm";
  }

  /// Also removes the fleet's files, so every set-up writes new files
  /// rather than truncating mapped ones (which made set-up times swing 3x).
  void teardown() {
    server_.reset();
    store_.reset();
    registry_.reset();
    for (std::size_t i = 0; i < ids_.size() && shape_.resident > 0; ++i) {
      ::unlink(path_of(i).c_str());
    }
  }

  void window(double qps, double seconds, std::uint64_t seed, bool traced,
              Reply& reply) {
    SpanLog* spans = tracer(traced);
    const std::vector<double> arrivals = poisson_arrivals(qps, seconds, seed);
    const std::size_t n = arrivals.size();
    const std::vector<Request> requests =
        make_requests(n, ids_.size(), shape_.zipf_s, seed);
    const std::size_t classes = artifacts_[0]->readout.num_classes();

    struct Pending {
      serve::InferFuture future;
      double scheduled_us = 0.0;  // from window start
      double submitted_us = 0.0;  // submit() call, from window start
      std::int32_t span = -1;
    };
    std::vector<Pending> pending(n);
    std::vector<double> lag_us(n);
    std::vector<int> labels(n, -1);
    std::vector<double> logits(n * classes);
    std::vector<serve::RequestStatus> status(n);
    std::vector<double> latency_us(n), server_us(n);
    std::vector<double> submit_us, get_hit_us, get_fault_us;
    std::atomic<std::size_t> published{0};

    const serve::ArtifactStoreCounters before =
        store_ ? store_->counters() : serve::ArtifactStoreCounters{};
    const Clock::time_point t0 = Clock::now() + std::chrono::microseconds(500);

    // The harvester collects results in order so slots recycle while the
    // window runs. Latency = (submit - schedule) + the server's own
    // submit->completion time, so the harvester's wake-up never counts.
    std::thread harvester([&] {
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t ready = published.load(std::memory_order_acquire);
        while (ready <= i) {
          published.wait(ready, std::memory_order_acquire);
          ready = published.load(std::memory_order_acquire);
        }
        Pending& p = pending[i];
        const serve::InferResult& r = p.future.get();
        status[i] = r.status;
        labels[i] = r.label;
        std::copy_n(r.logits.begin(), std::min(r.logits.size(), classes),
                    logits.begin() + static_cast<std::ptrdiff_t>(i * classes));
        server_us[i] = r.latency_us;
        latency_us[i] = p.submitted_us - p.scheduled_us + r.latency_us;
        if (spans != nullptr) {
          spans->set(p.span, kSpanRequest, -1, i, t0 + to_duration(p.scheduled_us * 1e-6),
                     t0 + to_duration((p.submitted_us + r.latency_us) * 1e-6),
                     r.latency_us);
        }
        p.future = serve::InferFuture{};
      }
    });

    const OnGeneratorCpu pinned;
    // The generator spins to each arrival (a sleeping dispatcher ran
    // 60-80 us late at p50 on the reference host). Time inside
    // ArtifactStore::get and InferenceServer::submit is system time: it
    // counts in latency, not in lag. So lag runs from the later of the
    // arrival's schedule and the end of the previous request's calls.
    Clock::time_point free_at = t0;
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point scheduled = t0 + to_duration(arrivals[i]);
      const Clock::time_point dispatch = spin_until(scheduled);
      const Clock::time_point due = std::max(scheduled, free_at);
      lag_us[i] = std::max(0.0, us_between(due, dispatch));
      const Request& q = requests[i];
      Pending& p = pending[i];
      p.span = spans != nullptr ? spans->reserve() : -1;
      if (spans != nullptr) {
        spans->add(kSpanLag, p.span, i, std::min(due, dispatch), dispatch);
      }
      if (store_) {
        const std::uint64_t faults = traced ? store_->counters().faults : 0;
        const Clock::time_point g0 = Clock::now();
        (void)store_->get(ids_[q.model]);
        if (spans != nullptr) {
          const Clock::time_point g1 = Clock::now();
          const bool faulted = store_->counters().faults != faults;
          (faulted ? get_fault_us : get_hit_us).push_back(us_between(g0, g1));
          spans->add(kSpanStoreGet, p.span, i, g0, g1, faulted ? 1.0 : 0.0);
        }
      }
      const Clock::time_point s0 = Clock::now();
      p.future = server_->submit(ids_[q.model], pool_[q.series]);
      free_at = Clock::now();
      p.scheduled_us = us_between(t0, scheduled);
      p.submitted_us = us_between(t0, s0);
      if (spans != nullptr) {
        submit_us.push_back(us_between(s0, free_at));
        spans->add(kSpanSubmit, p.span, i, s0, free_at);
      }
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
    harvester.join();

    Tally tally;
    std::vector<double> ok_latency_us, ok_server_us;
    for (std::size_t i = 0; i < n; ++i) {
      switch (status[i]) {
        case serve::RequestStatus::kOk: {
          const std::span<const double> got(logits.data() + i * classes,
                                            classes);
          if (oracle_.matches(requests[i], pool_, labels[i], got)) ++tally.ok;
          ok_latency_us.push_back(latency_us[i]);
          ok_server_us.push_back(server_us[i]);
          break;
        }
        case serve::RequestStatus::kQueueFull:
        case serve::RequestStatus::kShutdown: ++tally.rejected; break;
        case serve::RequestStatus::kDeadlineExceeded: ++tally.shed; break;
        default: break;
      }
    }
    tally.put(reply, n);
    reply.arr("latency_us", ok_latency_us).arr("lag_us", lag_us);
    if (traced) {
      reply.arr("server_us", ok_server_us).arr("submit_us", submit_us);
    }
    if (store_) {
      const serve::ArtifactStoreCounters after = store_->counters();
      reply.count("store_hits", after.hits - before.hits)
          .count("store_faults", after.faults - before.faults)
          .count("store_evictions", after.evictions - before.evictions)
          .num("store_load_us_p50", store_->load_latency_us().p50);
      if (traced) {
        reply.arr("get_hit_us", get_hit_us).arr("get_fault_us", get_fault_us);
      }
    }
  }

  /// Closed loop: `n` requests, `inflight` outstanding at a time. The server
  /// never runs dry and is never offered more than it serves, so the served
  /// rate is its capacity. An open-loop window far past capacity measures
  /// less: the generator's submits contend with the worker, and on `serve`
  /// the served rate fell from ~15k/s at 20k/s offered to ~10k/s at 60k/s.
  void saturate(std::size_t n, std::size_t inflight, std::uint64_t seed,
                Reply& reply) {
    const std::vector<Request> requests =
        make_requests(n, ids_.size(), shape_.zipf_s, seed);
    const std::size_t classes = artifacts_[0]->readout.num_classes();
    std::vector<serve::InferFuture> futures(n);
    std::vector<serve::RequestStatus> status(n);
    std::vector<int> labels(n, -1);
    std::vector<double> logits(n * classes);
    const OnGeneratorCpu pinned;
    const Clock::time_point t0 = Clock::now();
    std::size_t submitted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (; submitted < n && submitted < i + inflight; ++submitted) {
        const Request& q = requests[submitted];
        if (store_) (void)store_->get(ids_[q.model]);
        futures[submitted] = server_->submit(ids_[q.model], pool_[q.series]);
      }
      const serve::InferResult& r = futures[i].get();
      status[i] = r.status;
      labels[i] = r.label;
      std::copy_n(r.logits.begin(), std::min(r.logits.size(), classes),
                  logits.begin() + static_cast<std::ptrdiff_t>(i * classes));
      futures[i] = serve::InferFuture{};
    }
    const double seconds = seconds_since(t0);
    Tally tally;
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> got(logits.data() + i * classes, classes);
      if (status[i] == serve::RequestStatus::kOk &&
          oracle_.matches(requests[i], pool_, labels[i], got)) {
        ++tally.ok;
      }
    }
    tally.put(reply, n);
    reply.num("served_qps", static_cast<double>(tally.ok) / seconds);
  }

  Shape shape_;
  std::uint64_t seed_;
  std::string fleet_dir_;
  std::vector<std::string> ids_;
  std::vector<ModelArtifactPtr> artifacts_;
  std::vector<Matrix> pool_;
  Oracle oracle_;
  // Destroyed server-first (teardown) because the server and the store both
  // hold the registry.
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::ArtifactStore> store_;
  std::unique_ptr<serve::InferenceServer> server_;
};

/// serve-routed: Router (2 replicas, load-aware) over the wire to two
/// dfr_shard processes at their defaults (1 worker, no batching), driven by
/// two synchronous senders.
class RoutedWorkload final : public Workload {
 public:
  RoutedWorkload(std::uint64_t seed, std::string run_dir, std::string shard_bin)
      : seed_(seed), run_dir_(std::move(run_dir)), shard_bin_(std::move(shard_bin)) {}

  ~RoutedWorkload() override { teardown(); }

  double setup() override {
    teardown();
    const Clock::time_point start = Clock::now();
    ids_.clear();
    artifacts_.clear();
    for (std::size_t i = 0; i < kModels; ++i) {
      ids_.push_back("m" + std::to_string(i));
      artifacts_.push_back(
          serve::make_synth_artifact(ids_[i], model_spec(seed_ + i)));
    }
    pool_ = make_series_pool(seed_);
    for (std::size_t s = 0; s < kRoutedShards; ++s) {
      endpoints_.push_back("unix:" + run_dir_ + "/s" + std::to_string(s) + "-" +
                           std::to_string(::getpid()) + ".sock");
      pids_.push_back(spawn_shard(s));
    }
    serve::RouterConfig config;
    config.replicas = kRoutedShards;
    config.load_aware = true;
    config.seed = seed_;
    router_ = std::make_unique<serve::Router>(config);
    for (std::size_t s = 0; s < kRoutedShards; ++s) {
      router_->add_shard(shard_name(s), serve::wire::parse_endpoint(endpoints_[s]));
    }
    for (std::size_t s = 0; s < kRoutedShards; ++s) wait_ready(s);
    const double seconds = seconds_since(start);
    oracle_.reset(artifacts_);
    return seconds;
  }

  void run(const std::vector<std::string>& command, Reply& reply) override {
    if (command[0] == "window" && command.size() == 5) {
      window(std::stod(command[1]), std::stod(command[2]),
             std::stoull(command[3]), command[4] == "1", reply);
    } else if (command[0] == "saturate" && command.size() == 4) {
      saturate(std::stoull(command[1]), std::stoull(command[2]),
               std::stoull(command[3]), reply);
    } else if (command[0] == "replay") {
      replay_wire(reply);
    } else {
      throw CheckError("serve-routed: unknown command " + command[0]);
    }
  }

  double children_peak_rss_kib() override {
    double total = 0.0;
    for (pid_t pid : pids_) total += peak_rss_kib(std::to_string(pid));
    return total;
  }

  void stop() override { teardown(); }

 private:
  static constexpr std::size_t kModels = 8;
  static constexpr double kZipf = 1.2;

  static std::string shard_name(std::size_t s) { return "s" + std::to_string(s); }

  pid_t spawn_shard(std::size_t s) {
    const std::string log = run_dir_ + "/" + shard_name(s) + ".log";
    std::vector<std::string> args = {
        shard_bin_, "--endpoint", endpoints_[s], "--synth-models",
        std::to_string(kModels), "--seed", std::to_string(seed_)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    DFR_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // A shard must not outlive the harness, even when the harness is
      // killed before it can stop its shards.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::close(STDIN_FILENO);
      ::execv(shard_bin_.c_str(), argv.data());
      ::_exit(127);
    }
    return pid;
  }

  void wait_ready(std::size_t s) {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      try {
        const serve::wire::HealthInfo info = router_->health(shard_name(s));
        if (info.accepting && info.models == kModels) return;
      } catch (const serve::wire::WireIoError&) {
        // not listening yet
      }
      int status = 0;
      DFR_CHECK_MSG(::waitpid(pids_[s], &status, WNOHANG) == 0,
                    "dfr_shard exited during start-up; see its log in " + run_dir_);
      DFR_CHECK_MSG(Clock::now() < give_up, "dfr_shard not ready after 30 s");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void teardown() {
    router_.reset();
    for (pid_t pid : pids_) ::kill(pid, SIGTERM);
    for (pid_t pid : pids_) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    for (const std::string& e : endpoints_) ::unlink(e.substr(5).c_str());
    pids_.clear();
    endpoints_.clear();
  }

  struct RouterTotals {
    std::uint64_t retried = 0, io_failures = 0;
    std::uint64_t p2c_primary = 0, p2c_alternate = 0;
  };

  RouterTotals router_totals() const {
    RouterTotals t;
    for (std::size_t s = 0; s < kRoutedShards; ++s) {
      const serve::ShardCounters c = router_->counters(shard_name(s));
      t.retried += c.retried;
      t.io_failures += c.io_failures;
      t.p2c_primary += c.p2c_primary;
      t.p2c_alternate += c.p2c_alternate;
    }
    return t;
  }

  void window(double qps, double seconds, std::uint64_t seed, bool traced,
              Reply& reply) {
    SpanLog* spans = tracer(traced);
    const std::vector<double> arrivals = poisson_arrivals(qps, seconds, seed);
    const std::size_t n = arrivals.size();
    const std::vector<Request> requests =
        make_requests(n, kModels, kZipf, seed);
    std::vector<serve::wire::WireResponse> responses(n);
    std::vector<double> latency_us(n), rtt_us(n), lag_us(n), wait_us(n);
    std::atomic<std::size_t> next{0};
    const RouterTotals before = router_totals();
    const Clock::time_point t0 = Clock::now() + std::chrono::microseconds(500);

    // Each sender takes the next arrival in schedule order. An idle sender
    // sleeps to just before the arrival and spins the rest (lag); when every
    // sender is busy the arrival waits for one (sender wait). Both count in
    // latency, which runs from the scheduled arrival.
    auto sender = [&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const Clock::time_point scheduled = t0 + to_duration(arrivals[i]);
        const Clock::time_point picked = Clock::now();
        Clock::time_point sent = picked;
        if (picked < scheduled) {
          const auto margin = std::chrono::microseconds(100);
          if (scheduled - picked > margin) {
            std::this_thread::sleep_until(scheduled - margin);
          }
          sent = spin_until(scheduled);
          lag_us[i] = us_between(scheduled, sent);
        } else {
          wait_us[i] = us_between(scheduled, picked);
        }
        const Request& q = requests[i];
        responses[i] = router_->infer(ids_[q.model], pool_[q.series]);
        const Clock::time_point done = Clock::now();
        latency_us[i] = us_between(scheduled, done);
        rtt_us[i] = us_between(sent, done);
        if (spans != nullptr) {
          const std::int32_t root =
              spans->add(kSpanRequest, -1, i, scheduled, done,
                         responses[i].latency_us);
          spans->add(picked < scheduled ? kSpanLag : kSpanSenderWait, root, i,
                     std::min(scheduled, picked), sent);
          spans->add(kSpanRouterInfer, root, i, sent, done,
                     responses[i].latency_us);
        }
      }
    };
    std::vector<std::thread> senders;
    for (std::size_t s = 0; s < kRoutedSenders; ++s) senders.emplace_back(sender);
    for (std::thread& t : senders) t.join();

    Tally tally;
    std::vector<double> ok_latency_us, ok_rtt_us, ok_shard_us, lags, waits;
    for (std::size_t i = 0; i < n; ++i) {
      const serve::wire::WireResponse& r = responses[i];
      (wait_us[i] > 0.0 ? waits : lags)
          .push_back(wait_us[i] > 0.0 ? wait_us[i] : lag_us[i]);
      switch (r.status) {
        case serve::wire::WireStatus::kOk:
          if (oracle_.matches(requests[i], pool_, r.label, r.logits)) ++tally.ok;
          ok_latency_us.push_back(latency_us[i]);
          ok_rtt_us.push_back(rtt_us[i]);
          ok_shard_us.push_back(r.latency_us);
          break;
        case serve::wire::WireStatus::kQueueFull:
        case serve::wire::WireStatus::kShutdown:
        case serve::wire::WireStatus::kUnavailable:
        case serve::wire::WireStatus::kBreakerOpen: ++tally.rejected; break;
        case serve::wire::WireStatus::kDeadlineExceeded:
        case serve::wire::WireStatus::kTimeout: ++tally.shed; break;
        default: break;
      }
    }
    const RouterTotals after = router_totals();
    tally.put(reply, n);
    reply.arr("latency_us", ok_latency_us)
        .arr("lag_us", lags)
        .arr("sender_wait_us", waits)
        .count("router_retried", after.retried - before.retried)
        .count("router_io_failures", after.io_failures - before.io_failures)
        .count("router_p2c_primary", after.p2c_primary - before.p2c_primary)
        .count("router_p2c_alternate", after.p2c_alternate - before.p2c_alternate);
    if (traced) reply.arr("rtt_us", ok_rtt_us).arr("shard_us", ok_shard_us);
  }

  /// Closed loop: `n` requests over `inflight` synchronous senders, each
  /// sending its next request as soon as the last one returns.
  void saturate(std::size_t n, std::size_t inflight, std::uint64_t seed,
                Reply& reply) {
    const std::vector<Request> requests = make_requests(n, kModels, kZipf, seed);
    std::vector<serve::wire::WireResponse> responses(n);
    std::atomic<std::size_t> next{0};
    const Clock::time_point t0 = Clock::now();
    auto sender = [&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        responses[i] = router_->infer(ids_[requests[i].model], pool_[requests[i].series]);
      }
    };
    std::vector<std::thread> senders;
    for (std::size_t s = 0; s < inflight; ++s) senders.emplace_back(sender);
    for (std::thread& t : senders) t.join();
    const double seconds = seconds_since(t0);
    Tally tally;
    for (std::size_t i = 0; i < n; ++i) {
      const serve::wire::WireResponse& r = responses[i];
      if (r.status == serve::wire::WireStatus::kOk &&
          oracle_.matches(requests[i], pool_, r.label, r.logits)) {
        ++tally.ok;
      }
    }
    tally.put(reply, n);
    reply.num("served_qps", static_cast<double>(tally.ok) / seconds);
  }

  /// encode_request / decode_response on this workload's frame shapes.
  void replay_wire(Reply& reply) {
    SpanLog* spans = tracer(true);
    serve::wire::WireRequest request;
    request.model_id = ids_[0];
    std::vector<std::byte> frame;
    std::vector<double> encode_us, decode_us;
    double sink = 0.0;
    for (std::size_t i = 0; i < 30 * kSeriesPool; ++i) {
      request.seq = i;
      frame.clear();
      const Clock::time_point t0 = Clock::now();
      serve::wire::encode_request(request, pool_[i % kSeriesPool], frame);
      const Clock::time_point t1 = Clock::now();
      encode_us.push_back(us_between(t0, t1));
      spans->add(kSpanReplayEncode, -1, i, t0, t1, static_cast<double>(frame.size()));
    }
    const std::size_t request_bytes = frame.size();
    serve::wire::WireResponse response;
    response.label = 1;
    response.latency_us = 50.0;
    response.logits = Vector(artifacts_[0]->readout.num_classes(), 0.25);
    frame.clear();
    serve::wire::encode_response(response, frame);
    for (std::size_t i = 0; i < 30 * kSeriesPool; ++i) {
      const Clock::time_point t0 = Clock::now();
      const serve::wire::WireResponse decoded = serve::wire::decode_response(frame);
      const Clock::time_point t1 = Clock::now();
      sink += decoded.latency_us;
      decode_us.push_back(us_between(t0, t1));
      spans->add(kSpanReplayDecode, -1, i, t0, t1, static_cast<double>(frame.size()));
    }
    reply.arr("wire_encode_us", encode_us)
        .arr("wire_decode_us", decode_us)
        .count("wire_request_bytes", request_bytes)
        .count("wire_response_bytes", frame.size())
        .num("wire_sink", sink);
  }

  std::uint64_t seed_;
  std::string run_dir_;
  std::string shard_bin_;
  std::vector<std::string> ids_;
  std::vector<ModelArtifactPtr> artifacts_;
  std::vector<Matrix> pool_;
  Oracle oracle_;
  std::vector<std::string> endpoints_;
  std::vector<pid_t> pids_;
  std::unique_ptr<serve::Router> router_;
};

std::vector<std::string> split_words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  for (std::string w; in >> w;) words.push_back(w);
  return words;
}

int run(int argc, char** argv) {
  DFR_CHECK_MSG(argc >= 2, "usage: dfr_perfbench <workload> --seed N "
                           "--run-dir DIR [--shard-bin PATH]");
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  std::string run_dir = ".";
  std::string shard_bin;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      seed = std::stoull(argv[i + 1]);
    } else if (flag == "--run-dir") {
      run_dir = argv[i + 1];
    } else if (flag == "--shard-bin") {
      shard_bin = argv[i + 1];
    } else {
      throw CheckError("unknown flag " + flag);
    }
  }

  std::unique_ptr<Workload> bench;
  if (workload == "tune") {
    bench = std::make_unique<TuneWorkload>(seed);
  } else if (workload == "serve") {
    bench = std::make_unique<InprocWorkload>(InprocWorkload::Shape{}, seed, run_dir);
  } else if (workload == "serve-fleet") {
    // Batch window: a worker holding an unfilled batch waits out the whole
    // window even when other models' requests are queued, so it is kept
    // short next to the ~50 us single-series service time.
    bench = std::make_unique<InprocWorkload>(
        InprocWorkload::Shape{.models = 32, .zipf_s = 1.2, .max_batch = kBatchLanes,
                              .batch_window_us = 10, .resident = 24},
        seed, run_dir);
  } else if (workload == "serve-routed") {
    DFR_CHECK_MSG(!shard_bin.empty(), "serve-routed needs --shard-bin");
    bench = std::make_unique<RoutedWorkload>(seed, run_dir, shard_bin);
  } else {
    throw CheckError("unknown workload " + workload);
  }

  // Serving latency at low load is mostly wake-up latency; tune keeps its
  // four pool threads busy and runs without keepers.
  g_cpus = CpuPlan::make(workload == "serve" || workload == "serve-fleet");
  pin_self(g_cpus.service);
  std::optional<IdleKeepers> keepers;
  if (workload != "tune") keepers.emplace();
  Reply reply;
  for (std::string line; std::getline(std::cin, line);) {
    const std::vector<std::string> command = split_words(line);
    if (command.empty()) continue;
    if (command[0] == "setup") {
      // A thread started during a pinned set-up would keep the one CPU, so
      // run.py pins only tune's, which starts none.
      if (command.size() == 2) pin_self(nth_cpu(g_cpus.service, std::stoul(command[1])));
      reply.num("setup_s", bench->setup())
          .count("cpus", static_cast<std::uint64_t>(CPU_COUNT(&g_cpus.service)))
          .str("simd", simd::backend_name(simd::active_backend()));
      pin_self(g_cpus.service);
    } else if (command[0] == "probe") {
      reply.num("probe_us", probe_us());
    } else if (command[0] == "rss") {
      reply.num("peak_rss_mb",
                (peak_rss_kib("self") + bench->children_peak_rss_kib()) / 1024.0);
    } else if (command[0] == "finish") {
      const std::string path = run_dir + "/trace-" + workload + "-" +
                               std::to_string(seed) + ".tsv";
      if (g_spans) g_spans->write(path);
      reply.str("trace", g_spans ? path : "")
          .count("spans", g_spans ? g_spans->size() : 0)
          .count("spans_dropped", g_spans ? g_spans->dropped() : 0);
      bench->stop();
      reply.send();
      return 0;
    } else {
      bench->run(command, reply);
    }
    reply.send();
  }
  bench->stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfr_perfbench: %s\n", e.what());
    return 1;
  }
}
