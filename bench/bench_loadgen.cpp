// Open-loop load generator: the saturation-behavior harness the closed-loop
// bench_serving rows cannot provide. Requests arrive on a Poisson schedule
// at a target offered QPS regardless of how the system is doing — when the
// server falls behind, arrivals do NOT slow down (open loop), so queueing
// delay, deadline sheds, and queue-full rejections show up in the numbers
// instead of being absorbed by a waiting client. Latency is measured from
// each request's SCHEDULED arrival, not from when the generator got around
// to sending it, so dispatcher lag counts against the system (the standard
// coordinated-omission correction).
//
// Two targets behind one harness:
//   --mode inproc   drive an in-process InferenceServer (models +
//                   traffic from serve/synth.hpp) — the CI
//                   distributed-smoke job's in-process sweep, shed and
//                   fleet rows.
//   --mode socket   drive a shard fleet through the Router
//                   (serve/router.hpp): --shards unix:/a.sock,unix:/b.sock
//                   — the CI distributed-smoke job's traffic source.
//
// Each --qps point emits one CSV row (and a console line):
//   row          loadgen-inproc | router-<K>shard, with a -shed suffix when
//                --deadline-us is set (the queue-position shed measurement)
//   offered_qps / achieved_qps, sent/completed/shed/rejected/errors,
//   p50/p90/p99_us over completed requests, shed_frac, reject_frac, and
//   (last column) tail_samples, the completed requests slower than p99.
// At a few hundred completions a p99 rests on a handful of samples, so the
// console line prints the completed count and the highest of p99/p90 with at
// least kTailMinSamples samples beyond it, labelled with that count.
// A sweep (e.g. --qps 200,500,1000,2000) is the latency-vs-offered-load
// curve.
//
// Skew + policy A/B (--skew zipf:<s>, --policy load-aware|placement): Zipf
// model picks concentrate traffic on hot models, so with a replicated fleet
// the hot shard queues while its replica idles — the pair of rows the two
// policies emit at the same offered QPS is the load-aware-routing p99
// measurement. Fleet mode (--fleet on, inproc only) serves .dfrm files
// through an LRU ArtifactStore (--resident-models cap) and reports the
// fraction of requests that took a request-path cold fault
// (cold_fault_frac, last CSV column) — with --prefetch on, the store's
// successor predictor faults the next model in from a background worker and
// that fraction collapses to the warm-up transient. One caveat when the cap
// is far below the working set: a request queued behind a deep backlog can
// see its model LRU-evicted before the worker dequeues it (typed
// kUnknownModel, counted in errors) — size --resident-models >= the hot set
// when that matters.
//
// Chaos mode (--chaos on, socket only): point the fleet at shards running
// `dfr_shard --fault ...` — rows gain a -chaos suffix and every point prints
// a chaos-taxonomy line proving each sent request resolved to a typed
// outcome (ok / shed / rejected / error, with timeout and breaker-fast-fail
// fractions split out). The router's robustness knobs are exposed as
// --attempt-deadline-us / --retry-budget / --breaker-threshold; the CI
// chaos-smoke job asserts a wedged or kill -9'd shard loses nothing.
//
// Usage:
//   bench_loadgen --qps 200,500,1000,2000 --duration-s 2 --csv loadgen.csv
//   bench_loadgen --mode socket --shards unix:/tmp/s0.sock,unix:/tmp/s1.sock
//                 --models 2 --replicas 2 --qps 100,200,400,800
//   bench_loadgen --mode socket --shards ... --skew zipf:1.2 --policy placement
//   bench_loadgen --mode socket --shards ... --chaos on --breaker-threshold 3
//   bench_loadgen --fleet on --models 12 --resident-models 4 --prefetch on

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "dfr/trainer.hpp"
#include "linalg/stats.hpp"
#include "serve/artifact_store.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/synth.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace dfr;
using Clock = std::chrono::steady_clock;

/// Outcome tallies + completed-request latencies for one offered-QPS point.
struct PointResult {
  double offered_qps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;      // typed kDeadlineExceeded (submit/queue/dequeue)
  std::uint64_t rejected = 0;  // kQueueFull / kShutdown / kUnavailable
  std::uint64_t errors = 0;    // anything else that is not kOk
  // Router failure taxonomy (socket mode; both also count in `rejected` so
  // the sent = completed + shed + rejected + errors ledger still balances):
  std::uint64_t timeouts = 0;   // kTimeout: retry walk ran out of deadline
  std::uint64_t fastfails = 0;  // kBreakerOpen: no replica was dialable
  double duration_s = 0.0;     // wall clock, first arrival -> last resolution
  Vector latencies_us;         // completed requests, scheduled-arrival based

  void count(serve::RequestStatus status, double latency_us) {
    switch (status) {
      case serve::RequestStatus::kOk:
        ++completed;
        latencies_us.push_back(latency_us);
        break;
      case serve::RequestStatus::kDeadlineExceeded: ++shed; break;
      case serve::RequestStatus::kQueueFull:
      case serve::RequestStatus::kShutdown: ++rejected; break;
      default: ++errors; break;
    }
  }
};

/// Deterministic Poisson arrival schedule: exponential inter-arrival gaps at
/// `qps`, for `duration_s` of offered load.
std::vector<double> make_arrivals_s(double qps, double duration_s,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(qps * duration_s * 1.2) + 16);
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential; 1-u keeps log()'s argument in (0, 1].
    t += -std::log(1.0 - rng.uniform()) / qps;
    if (t >= duration_s) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Per-arrival model picks. zipf_s == 0 keeps the legacy uniform cycle
/// (i % models, so unskewed rows stay comparable across PRs); zipf_s > 0
/// draws i.i.d. Zipf(s) ranks via the precomputed CDF and the repo Rng —
/// deterministic for a given (seed, n), hot model first (m0 hottest).
std::vector<std::size_t> make_model_picks(std::size_t n, std::size_t models,
                                          double zipf_s, std::uint64_t seed) {
  std::vector<std::size_t> picks(n);
  if (zipf_s <= 0.0) {
    for (std::size_t i = 0; i < n; ++i) picks[i] = i % models;
    return picks;
  }
  std::vector<double> cdf(models);
  double total = 0.0;
  for (std::size_t k = 0; k < models; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }
  Rng rng(seed ^ 0x5ca1ab1eu);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform() * total;
    picks[i] = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (picks[i] >= models) picks[i] = models - 1;
  }
  return picks;
}

// ---- in-process target -----------------------------------------------------

/// One offered-QPS point against an in-process InferenceServer. The main
/// thread dispatches on schedule (submit never blocks); a harvester
/// collects futures FIFO so slots recycle while the point is still running
/// (futures hold their slot until released — harvesting IS the client).
PointResult run_point_inproc(serve::InferenceServer& server,
                             const std::vector<std::string>& model_ids,
                             const std::vector<Matrix>& series_pool,
                             double qps, double duration_s,
                             std::uint64_t deadline_us, std::uint64_t seed,
                             double zipf_s = 0.0,
                             serve::ArtifactStore* store = nullptr) {
  PointResult result;
  result.offered_qps = qps;
  const std::vector<double> arrivals = make_arrivals_s(qps, duration_s, seed);
  const std::vector<std::size_t> picks =
      make_model_picks(arrivals.size(), model_ids.size(), zipf_s, seed);

  struct Pending {
    serve::InferFuture future;
    double dispatch_lag_us;  // scheduled arrival -> actual submit
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> inflight;
  bool done_dispatching = false;

  std::thread harvester([&] {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !inflight.empty() || done_dispatching; });
        if (inflight.empty()) return;
        pending = Pending{std::move(inflight.front().future),
                          inflight.front().dispatch_lag_us};
        inflight.pop_front();
      }
      const serve::InferResult& r = pending.future.get();
      // Scheduled-arrival latency: server-side submit->done plus however
      // long the dispatcher ran behind schedule.
      result.count(r.status, pending.dispatch_lag_us + r.latency_us);
    }
  });

  serve::RequestOptions options;
  options.deadline_us = deadline_us;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Clock::time_point scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(scheduled);
    // Fleet mode: resolve the artifact through the store FIRST, so a cold
    // model's fault-in (or its prefetch-avoided absence) lands on the
    // request path exactly where a real server would pay it — the
    // dispatch-lag correction below folds the load time into latency.
    if (store != nullptr) (void)store->get(model_ids[picks[i]]);
    serve::InferFuture future =
        server.submit(model_ids[picks[i]],
                      series_pool[i % series_pool.size()], options);
    const double lag_us = std::max(0.0, us_between(scheduled, Clock::now()));
    {
      std::lock_guard<std::mutex> lock(mutex);
      inflight.push_back(Pending{std::move(future), lag_us});
    }
    cv.notify_one();
    ++result.sent;
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done_dispatching = true;
  }
  cv.notify_all();
  harvester.join();
  result.duration_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

// ---- socket-tier target ----------------------------------------------------

/// One offered-QPS point through the Router against live shards. Arrivals
/// are stamped into a job queue on schedule; `senders` synchronous sender
/// threads drain it, so when every sender is busy the jobs age in the queue
/// and that aging lands in the measured latency (open-loop honesty — the
/// schedule never slows down for a saturated fleet).
PointResult run_point_socket(serve::Router& router,
                             const std::vector<std::string>& model_ids,
                             const std::vector<Matrix>& series_pool,
                             double qps, double duration_s,
                             std::uint64_t deadline_us, std::size_t senders,
                             std::uint64_t seed, double zipf_s = 0.0) {
  PointResult result;
  result.offered_qps = qps;
  const std::vector<double> arrivals = make_arrivals_s(qps, duration_s, seed);
  const std::vector<std::size_t> picks =
      make_model_picks(arrivals.size(), model_ids.size(), zipf_s, seed);

  struct Job {
    Clock::time_point scheduled;
    std::size_t index;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Job> jobs;
  bool done_dispatching = false;

  serve::RequestOptions options;
  options.deadline_us = deadline_us;

  std::vector<PointResult> per_sender(senders);
  std::vector<std::thread> threads;
  threads.reserve(senders);
  for (std::size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      for (;;) {
        Job job;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return !jobs.empty() || done_dispatching; });
          if (jobs.empty()) return;
          job = jobs.front();
          jobs.pop_front();
        }
        const serve::wire::WireResponse response =
            router.infer(model_ids[picks[job.index]],
                         series_pool[job.index % series_pool.size()], options);
        const double latency_us =
            std::max(0.0, us_between(job.scheduled, Clock::now()));
        // WireStatus 0..6 mirror RequestStatus; the router-local statuses
        // (kUnavailable / kTimeout / kBreakerOpen) count rejected, with
        // timeout/fast-fail tallied separately for the chaos taxonomy.
        if (response.status == serve::wire::WireStatus::kUnavailable) {
          ++per_sender[s].rejected;
        } else if (response.status == serve::wire::WireStatus::kTimeout) {
          ++per_sender[s].rejected;
          ++per_sender[s].timeouts;
        } else if (response.status == serve::wire::WireStatus::kBreakerOpen) {
          ++per_sender[s].rejected;
          ++per_sender[s].fastfails;
        } else {
          per_sender[s].count(
              static_cast<serve::RequestStatus>(response.status), latency_us);
        }
      }
    });
  }

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Clock::time_point scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(scheduled);
    {
      std::lock_guard<std::mutex> lock(mutex);
      jobs.push_back(Job{scheduled, i});
    }
    cv.notify_one();
    ++result.sent;
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done_dispatching = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  result.duration_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (PointResult& part : per_sender) {
    result.completed += part.completed;
    result.shed += part.shed;
    result.rejected += part.rejected;
    result.errors += part.errors;
    result.timeouts += part.timeouts;
    result.fastfails += part.fastfails;
    result.latencies_us.insert(result.latencies_us.end(),
                               part.latencies_us.begin(),
                               part.latencies_us.end());
  }
  return result;
}

// ---- reporting -------------------------------------------------------------

std::string fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", v);
  return buffer;
}

/// Fewest samples beyond a tail quantile for the console line to print it.
constexpr std::size_t kTailMinSamples = 10;

/// Samples strictly above `threshold`.
std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

void report_point(const std::string& row, std::size_t shards,
                  std::size_t workers, const PointResult& point,
                  bench::BenchCsv& csv, double cold_fault_frac = 0.0) {
  const Summary latency = point.latencies_us.empty()
                              ? Summary{}
                              : summarize(point.latencies_us);
  const std::size_t beyond_p99 = count_above(point.latencies_us, latency.p99);
  const std::size_t beyond_p90 = count_above(point.latencies_us, latency.p90);
  const double denom = point.sent > 0 ? static_cast<double>(point.sent) : 1.0;
  const double shed_frac = static_cast<double>(point.shed) / denom;
  const double reject_frac = static_cast<double>(point.rejected) / denom;
  const double achieved =
      point.duration_s > 0.0
          ? static_cast<double>(point.completed) / point.duration_s
          : 0.0;
  std::cout << row << ": offered=" << fmt(point.offered_qps)
            << "qps achieved=" << fmt(achieved) << "qps sent=" << point.sent
            << " completed=" << point.completed << " p50=" << fmt(latency.p50)
            << "us";
  if (beyond_p99 >= kTailMinSamples) {
    std::cout << " p99=" << fmt(latency.p99) << "us(" << beyond_p99
              << " beyond)";
  } else if (beyond_p90 >= kTailMinSamples) {
    std::cout << " p90=" << fmt(latency.p90) << "us(" << beyond_p90
              << " beyond)";
  } else {
    std::cout << " tail=n/a(<" << kTailMinSamples << " beyond p90)";
  }
  std::cout << " shed=" << fmt(100.0 * shed_frac)
            << "% rejected=" << fmt(100.0 * reject_frac)
            << "% errors=" << point.errors;
  if (cold_fault_frac > 0.0) {
    std::cout << " cold_faults=" << fmt(100.0 * cold_fault_frac) << "%";
  }
  const double timeout_frac = static_cast<double>(point.timeouts) / denom;
  const double fastfail_frac = static_cast<double>(point.fastfails) / denom;
  if (point.timeouts > 0 || point.fastfails > 0) {
    std::cout << " timeouts=" << fmt(100.0 * timeout_frac)
              << "% breaker_fastfails=" << fmt(100.0 * fastfail_frac) << "%";
  }
  std::cout << "\n";
  // cold_fault_frac / timeout_frac / breaker_fastfail_frac / tail_samples
  // are APPENDED so the CI awk checks' column indices stay valid.
  csv.add_row({row, "synth", std::to_string(shards), std::to_string(workers),
               fmt(point.offered_qps), fmt(point.duration_s),
               std::to_string(point.sent), std::to_string(point.completed),
               std::to_string(point.shed), std::to_string(point.rejected),
               std::to_string(point.errors), fmt(achieved), fmt(latency.p50),
               fmt(latency.p90), fmt(latency.p99), fmt(shed_frac),
               fmt(reject_frac), fmt(cold_fault_frac), fmt(timeout_frac),
               fmt(fastfail_frac), std::to_string(beyond_p99)});
}

std::vector<double> parse_qps_list(const std::string& text) {
  std::vector<double> points;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) points.push_back(std::stod(text.substr(start, end - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  DFR_CHECK_MSG(!points.empty(), "--qps selected no points");
  return points;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int run(int argc, char** argv) {
  CliParser cli("bench_loadgen",
                "Open-loop Poisson load generator: latency vs offered load "
                "against the in-process server or the sharded socket tier");
  cli.add_option("mode", "inproc | socket", "inproc");
  cli.add_option("qps", "comma list of offered-QPS sweep points",
                 "200,500,1000,2000");
  cli.add_option("duration-s", "offered-load seconds per point", "2");
  cli.add_option("deadline-us",
                 "per-request completion budget (0 = none; rows gain a "
                 "-shed suffix and measure the shed fraction)",
                 "0");
  cli.add_option("models", "synthetic model count (ids m0..m{N-1})", "2");
  cli.add_option("channels", "synthetic series channels", "2");
  cli.add_option("classes", "synthetic model classes", "4");
  cli.add_option("nodes", "synthetic model virtual nodes (Nx)", "30");
  cli.add_option("steps", "synthetic series length (T)", "64");
  cli.add_option("seed", "master seed (models + arrivals)", "42");
  cli.add_option("workers", "inproc: serving threads", "1");
  cli.add_option("queue-capacity", "inproc: bounded queue capacity", "256");
  cli.add_option("shards",
                 "socket: comma list of shard endpoints "
                 "(unix:/path or tcp:host:port)",
                 "");
  cli.add_option("replicas", "socket: replica-group size", "1");
  cli.add_option("senders", "socket: concurrent sender threads", "8");
  cli.add_option("skew",
                 "model-pick distribution: none | zipf:<s> (deterministic; "
                 "rows gain a -zipf suffix)",
                 "none");
  cli.add_option("policy",
                 "socket: replica choice, load-aware | placement "
                 "(placement rows gain a -placement suffix)",
                 "load-aware");
  cli.add_option("health-poll-ms",
                 "socket: router health-probe interval (shorter polls damp "
                 "p2c herding on stale samples)",
                 "50");
  cli.add_option("chaos",
                 "socket: off | on — fault-tolerance reporting mode: rows "
                 "gain a -chaos suffix and the console prints the full "
                 "error-taxonomy fractions per point (point the fleet at "
                 "shards running dfr_shard --fault ...)",
                 "off");
  cli.add_option("attempt-deadline-us",
                 "socket: router per-attempt wire deadline for requests "
                 "without their own --deadline-us (0 = unlimited)",
                 "2000000");
  cli.add_option("retry-budget",
                 "socket: router retries per request after the first attempt",
                 "3");
  cli.add_option("breaker-threshold",
                 "socket: consecutive failures that open a shard's circuit "
                 "breaker (0 = disabled)",
                 "5");
  cli.add_option("fleet",
                 "inproc: off | on — serve .dfrm artifacts through an "
                 "LRU ArtifactStore (rows become loadgen-fleet and report "
                 "cold_fault_frac)",
                 "off");
  cli.add_option("resident-models",
                 "fleet: LRU cap as a model count (0 = unbounded)", "0");
  cli.add_option("prefetch",
                 "fleet: off | on — background successor prefetch "
                 "(rows gain a -prefetch suffix)",
                 "off");
  bench::add_csv_option(cli, "");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }

  const std::string mode = cli.get("mode");
  DFR_CHECK_MSG(mode == "inproc" || mode == "socket",
                "--mode must be inproc or socket");
  const std::vector<double> qps_points = parse_qps_list(cli.get("qps"));
  const double duration_s = cli.get_double("duration-s");
  const std::uint64_t deadline_us = cli.get_u64("deadline-us");
  const std::uint64_t seed = cli.get_u64("seed");
  const std::size_t model_count = cli.get_u64("models");
  DFR_CHECK_MSG(model_count > 0, "--models must be >= 1");

  serve::SynthModelSpec spec;
  spec.channels = cli.get_u64("channels");
  spec.num_classes = static_cast<int>(cli.get_i64("classes"));
  spec.nodes = cli.get_u64("nodes");

  std::vector<std::string> model_ids;
  for (std::size_t i = 0; i < model_count; ++i) {
    model_ids.push_back("m" + std::to_string(i));
  }
  // Distinct series cycled across requests; the shapes (T x V) are what the
  // serving cost depends on, so 32 deterministic instances are plenty.
  std::vector<Matrix> series_pool;
  for (std::size_t i = 0; i < 32; ++i) {
    series_pool.push_back(
        serve::make_synth_series(cli.get_u64("steps"), spec.channels,
                                 seed + 7000 + i));
  }

  bench::BenchCsv csv(cli, {"row", "dataset", "shards", "workers",
                            "offered_qps", "duration_s", "sent", "completed",
                            "shed", "rejected", "errors", "achieved_qps",
                            "p50_us", "p90_us", "p99_us", "shed_frac",
                            "reject_frac", "cold_fault_frac", "timeout_frac",
                            "breaker_fastfail_frac", "tail_samples"});

  const std::string skew = cli.get("skew");
  double zipf_s = 0.0;
  if (skew != "none") {
    DFR_CHECK_MSG(skew.rfind("zipf:", 0) == 0,
                  "--skew must be none or zipf:<s>");
    zipf_s = std::stod(skew.substr(5));
    DFR_CHECK_MSG(zipf_s > 0.0, "--skew zipf:<s> needs s > 0");
  }
  const std::string policy = cli.get("policy");
  DFR_CHECK_MSG(policy == "load-aware" || policy == "placement",
                "--policy must be load-aware or placement");
  std::string suffix = deadline_us > 0 ? "-shed" : "";
  if (zipf_s > 0.0) suffix += "-zipf";

  if (mode == "inproc") {
    const bool fleet = cli.get("fleet") == "on";
    const bool prefetch_on = cli.get("prefetch") == "on";
    serve::ModelRegistry registry;
    std::unique_ptr<serve::ArtifactStore> store;
    std::string fleet_dir;
    if (fleet) {
      // Materialize the synthetic fleet as real .dfrm files so the store's
      // mmap fault path (and its madvise hints) is what the numbers
      // measure, not an in-memory shortcut.
      fleet_dir = "/tmp/dfr_loadgen_fleet." + std::to_string(::getpid());
      DFR_CHECK_MSG(::mkdir(fleet_dir.c_str(), 0700) == 0,
                    "cannot create fleet dir: " + fleet_dir);
      std::size_t artifact_bytes = 0;
      for (std::size_t i = 0; i < model_count; ++i) {
        spec.seed = seed + i;
        const ModelArtifactPtr artifact =
            serve::make_synth_artifact(model_ids[i], spec);
        TrainResult trained;
        trained.params = artifact->params;
        trained.mask = artifact->mask;
        trained.nonlinearity = artifact->nonlinearity;
        trained.readout = artifact->readout;
        trained.chosen_beta = artifact->chosen_beta;
        const std::string path = fleet_dir + "/" + model_ids[i] + ".dfrm";
        save_model(trained, path, /*format_version=*/2);
        if (artifact_bytes == 0) {
          struct stat st{};
          DFR_CHECK_MSG(::stat(path.c_str(), &st) == 0, "cannot stat " + path);
          artifact_bytes = static_cast<std::size_t>(st.st_size);
        }
      }
      serve::ArtifactStoreConfig store_config;
      const std::size_t resident = cli.get_u64("resident-models");
      store_config.max_resident_bytes = resident * artifact_bytes;
      store_config.prefetch = prefetch_on;
      store = std::make_unique<serve::ArtifactStore>(registry, store_config);
      for (std::size_t i = 0; i < model_count; ++i) {
        store->add(model_ids[i], fleet_dir + "/" + model_ids[i] + ".dfrm");
      }
    } else {
      for (std::size_t i = 0; i < model_count; ++i) {
        spec.seed = seed + i;
        registry.register_model(serve::make_synth_artifact(model_ids[i], spec));
      }
    }
    serve::ServerConfig config;
    config.workers = cli.get_u64("workers");
    config.queue_capacity = cli.get_u64("queue-capacity");
    serve::InferenceServer server(registry, config);
    const std::string row = fleet ? "loadgen-fleet" +
                                        std::string(prefetch_on ? "-prefetch"
                                                                : "") +
                                        suffix
                                  : "loadgen-inproc" + suffix;
    for (std::size_t p = 0; p < qps_points.size(); ++p) {
      const std::uint64_t faults_before =
          store != nullptr ? store->counters().faults : 0;
      const PointResult point =
          run_point_inproc(server, model_ids, series_pool, qps_points[p],
                           duration_s, deadline_us, seed + 100 + p, zipf_s,
                           store.get());
      double cold_fault_frac = 0.0;
      if (store != nullptr && point.sent > 0) {
        store->wait_prefetch_idle();
        cold_fault_frac =
            static_cast<double>(store->counters().faults - faults_before) /
            static_cast<double>(point.sent);
      }
      report_point(row, /*shards=*/0, config.workers, point, csv,
                   cold_fault_frac);
    }
    if (store != nullptr) {
      store->export_stats(std::cout);
      for (std::size_t i = 0; i < model_count; ++i) {
        (void)::unlink(
            (fleet_dir + "/" + model_ids[i] + ".dfrm").c_str());
      }
      (void)::rmdir(fleet_dir.c_str());
    }
  } else {
    const std::vector<std::string> endpoints = split_list(cli.get("shards"));
    DFR_CHECK_MSG(!endpoints.empty(),
                  "--mode socket requires --shards endpoint list");
    const bool chaos = cli.get("chaos") == "on";
    serve::RouterConfig router_config;
    router_config.replicas = cli.get_u64("replicas");
    router_config.load_aware = policy == "load-aware";
    router_config.health_poll_ms = cli.get_u64("health-poll-ms");
    router_config.default_attempt_deadline_us =
        cli.get_u64("attempt-deadline-us");
    router_config.retry_budget = cli.get_u64("retry-budget");
    router_config.breaker_threshold =
        static_cast<std::uint32_t>(cli.get_u64("breaker-threshold"));
    router_config.seed = seed;
    serve::Router router(router_config);
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      router.add_shard("s" + std::to_string(i),
                       serve::wire::parse_endpoint(endpoints[i]));
    }
    const std::string row = "router-" + std::to_string(endpoints.size()) +
                            "shard" + suffix +
                            (policy == "placement" ? "-placement" : "") +
                            (chaos ? "-chaos" : "");
    for (std::size_t p = 0; p < qps_points.size(); ++p) {
      const PointResult point = run_point_socket(
          router, model_ids, series_pool, qps_points[p], duration_s,
          deadline_us, cli.get_u64("senders"), seed + 100 + p, zipf_s);
      report_point(row, endpoints.size(), /*workers=*/0, point, csv);
      if (chaos && point.sent > 0) {
        // The chaos ledger: every sent request accounted for with a typed
        // outcome — the "no request is ever silently lost" claim, printed
        // per point so a CI grep can assert on it.
        const double denom = static_cast<double>(point.sent);
        std::cout << "chaos-taxonomy: sent=" << point.sent
                  << " ok_frac=" << fmt(static_cast<double>(point.completed) /
                                        denom)
                  << " shed_frac=" << fmt(static_cast<double>(point.shed) /
                                          denom)
                  << " rejected_frac=" << fmt(
                         static_cast<double>(point.rejected) / denom)
                  << " error_frac=" << fmt(static_cast<double>(point.errors) /
                                           denom)
                  << " timeout_frac=" << fmt(
                         static_cast<double>(point.timeouts) / denom)
                  << " breaker_fastfail_frac=" << fmt(
                         static_cast<double>(point.fastfails) / denom)
                  << " accounted=" << (point.completed + point.shed +
                                               point.rejected + point.errors ==
                                           point.sent
                                       ? "yes"
                                       : "NO")
                  << "\n";
      }
    }
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      const serve::ShardCounters counters =
          router.counters("s" + std::to_string(i));
      std::cout << "shard s" << i << ": requests=" << counters.requests
                << " ok=" << counters.ok << " retried=" << counters.retried
                << " io_failures=" << counters.io_failures
                << " timeouts=" << counters.timeouts
                << " breaker_trips=" << counters.breaker_trips
                << " breaker_fastfails=" << counters.breaker_fastfails << "\n";
    }
    router.export_stats(std::cout);
  }
  csv.report();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_loadgen: " << e.what() << "\n";
    return 1;
  }
}
