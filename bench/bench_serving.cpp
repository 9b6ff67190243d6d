// Serving bench: what the unified streaming inference engine
// (serve/engine.hpp) delivers at deployment time — single-stream latency
// percentiles (p50/p90/p99) and batch throughput across thread counts, for
// the float, SIMD (runtime-dispatched; force with
// DFR_SIMD=scalar|avx2|avx512|neon) and calibrated fixed-point datapaths
// (quant-scalar vs the vectorized quant-<backend>, bit-identical by the
// quantized SIMD contract) — plus the cross-request batched SoA engine rows
// (batched-<backend> / batched-quant-<backend>: one BatchedEngine running
// `--lanes` concurrent series per step, per-series latency = batch time /
// lanes, speedup vs the single-series simd-<backend> serial loop) — plus
// the multi-model serving rows: 1/2/4 registered models behind the
// request-queue InferenceServer (serve/server.hpp) under interleaved
// traffic, reporting request throughput and end-to-end latency (queue wait
// + inference) per worker count, for float and per-request-routed quantized
// traffic (<models>-quant rows), and the same traffic through a
// micro-batching server (<models>+batch rows, max_batch = --lanes) — plus
// the model-fleet rows (fleet-<N>m for N = 16/256/1024 ids through an
// ArtifactStore: cold-load p50 of the zero-copy mmap loader, warm-hit p50,
// and the VmRSS delta of the cold sweep; 16 distinct .dfrm v2 files are
// cycled across the ids so the 1024-id sweep stays I/O-light) — plus the
// offered-deadline shed line (shed-deadline: one worker, every request
// submitted with a deadline a few service times wide, reporting the
// fraction the server shed with kDeadlineExceeded before spending engine
// time).
//
// Thread-sweep and multi-worker rows are only meaningful when the host has
// the cores to run them: on hosts with fewer than 4 cores, rows that would
// oversubscribe (threads/workers > cores) print explicit
// `skipped(ncores=N)` markers instead of misleading numbers.
//
// The model is built directly (random mask + random readout at the paper's
// Nx=30 shape): serving cost depends only on shapes (T, V, Nx, Ny), never on
// weight values, so skipping training keeps the bench pure-serving and fast
// enough for CI. Throughput speedups are hardware-dependent; the speedup
// column reports batch `classify_batch` throughput relative to a serial
// per-series loop on one engine.
//
// Usage: bench_serving [--datasets ECG,JPVOW] [--cap 200] [--seed 42] [--full]
//                      [--batch 256] [--repeats 3] [--nodes 30] [--lanes 8]
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dfr/dprr.hpp"
#include "dfr/model_io.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "linalg/stats.hpp"
#include "serve/artifact_store.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace dfr;

/// Deployment-shaped model with random (but deterministic) weights.
LoadedModel make_serving_model(const Dataset& data, std::size_t nodes,
                               std::uint64_t seed) {
  Rng rng(seed);
  LoadedModel model;
  model.params = DfrParams{0.1, 0.05};
  model.mask = Mask(nodes, data.channels(), MaskKind::kBinary, rng);
  Matrix w(static_cast<std::size_t>(data.num_classes()), dprr_dim(nodes));
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) w(i, j) = rng.uniform(-1.0, 1.0);
  }
  Vector b(w.rows(), 0.0);
  for (double& v : b) v = rng.uniform(-0.1, 0.1);
  model.readout = OutputLayer(std::move(w), std::move(b));
  return model;
}

/// Batch of `size` series cycled from the test split.
std::vector<Matrix> make_batch(const Dataset& data, std::size_t size) {
  std::vector<Matrix> batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) batch.push_back(data[i % data.size()].series);
  return batch;
}

struct StreamResult {
  Summary latency_us;   // per-classify latency distribution
  double serial_sps = 0.0;  // serial per-series loop, one engine
};

struct ServerRunResult {
  Summary latency_us;       // end-to-end request latency (queue + inference)
  double requests_per_s = 0.0;
};

/// One traffic wave through the request-queue server: `batch.size()` requests
/// interleaved round-robin across `model_ids`, submitted as fast as the
/// queue admits (futures held, so capacity = batch size: no rejections).
/// `options` selects the per-request engine routing (float or quantized).
ServerRunResult run_server_traffic(serve::InferenceServer& server,
                                   const std::vector<std::string>& model_ids,
                                   const std::vector<Matrix>& batch,
                                   std::size_t repeats,
                                   serve::RequestOptions options = {}) {
  ServerRunResult result;
  Vector latencies;
  latencies.reserve(batch.size() * repeats);
  double seconds = 0.0;
  for (std::size_t r = 0; r <= repeats; ++r) {  // pass 0 = untimed warm-up
    std::vector<serve::InferFuture> futures;
    futures.reserve(batch.size());
    Timer t;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      futures.push_back(
          server.submit(model_ids[i % model_ids.size()], batch[i], options));
    }
    for (serve::InferFuture& future : futures) future.wait();
    if (r == 0) continue;
    seconds += t.elapsed_seconds();
    for (const serve::InferFuture& future : futures) {
      latencies.push_back(future.get().latency_us);
    }
  }
  result.latency_us = summarize(latencies);
  result.requests_per_s =
      static_cast<double>(batch.size() * repeats) / seconds;
  return result;
}

/// Cross-request batched SoA engine over `batch`, `lanes` series per call:
/// per-series latency is the batch call's time divided by its lane count
/// (each recorded once per lane so percentiles weight series, not chunks).
template <typename Engine>
StreamResult run_batched_stream(Engine engine, const std::vector<Matrix>& batch,
                                std::size_t lanes, std::size_t repeats) {
  std::vector<const Matrix*> ptrs(lanes, nullptr);
  const auto run_chunk = [&](std::size_t start) {
    const std::size_t n = std::min(lanes, batch.size() - start);
    for (std::size_t l = 0; l < n; ++l) ptrs[l] = &batch[start + l];
    engine.infer(std::span<const Matrix* const>(ptrs.data(), n));
    return n;
  };
  for (std::size_t s = 0; s < batch.size(); s += lanes) run_chunk(s);  // warmup
  StreamResult result;
  Vector latencies;
  latencies.reserve(batch.size() * repeats);
  Timer total;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t s = 0; s < batch.size(); s += lanes) {
      Timer t;
      const std::size_t n = run_chunk(s);
      const double per_series =
          static_cast<double>(t.elapsed_ns()) * 1e-3 / static_cast<double>(n);
      for (std::size_t l = 0; l < n; ++l) latencies.push_back(per_series);
    }
  }
  result.serial_sps =
      static_cast<double>(batch.size() * repeats) / total.elapsed_seconds();
  result.latency_us = summarize(latencies);
  return result;
}

/// Current VmRSS in kilobytes from /proc/self/status (0 when unavailable,
/// e.g. non-Linux — fleet rows then report a 0 MB delta, never garbage).
std::size_t vm_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6)));
    }
  }
  return 0;
}

/// Write `count` distinct .dfrm v2 files (different weight seeds, same
/// shape) under `dir`, returning their paths. Fleet sweeps cycle ids over
/// these, so a 1024-id sweep needs 16 files, not 1024.
std::vector<std::string> write_fleet_files(const std::filesystem::path& dir,
                                           const Dataset& data,
                                           std::size_t nodes,
                                           std::uint64_t seed,
                                           std::size_t count) {
  std::vector<std::string> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const LoadedModel model = make_serving_model(data, nodes, seed + i);
    TrainResult trained;
    trained.params = model.params;
    trained.mask = model.mask;
    trained.nonlinearity = model.nonlinearity;
    trained.readout = model.readout;
    trained.chosen_beta = model.chosen_beta;
    paths.push_back((dir / ("fleet" + std::to_string(i) + ".dfrm")).string());
    save_model(trained, paths.back());
  }
  return paths;
}

struct FleetResult {
  Summary cold_us;      // per-get fault-in latency, first pass
  Summary warm_us;      // per-get hit latency, second pass
  double rss_delta_mb = 0.0;  // VmRSS growth across the cold sweep
};

/// One fleet sweep: `num_models` ids (cycling `files`) through a fresh
/// ArtifactStore, cold pass then warm pass, VmRSS delta around the cold
/// pass.
FleetResult run_fleet(serve::ModelRegistry& registry,
                      const std::vector<std::string>& files,
                      std::size_t num_models) {
  serve::ArtifactStore store(registry);
  std::vector<std::string> ids;
  ids.reserve(num_models);
  for (std::size_t m = 0; m < num_models; ++m) {
    ids.push_back("f" + std::to_string(m));
    store.add(ids.back(), files[m % files.size()]);
  }
  FleetResult result;
  Vector cold, warm;
  cold.reserve(num_models);
  warm.reserve(num_models);
  const std::size_t rss_before = vm_rss_kb();
  for (const std::string& id : ids) {
    Timer t;
    (void)store.get(id);
    cold.push_back(static_cast<double>(t.elapsed_ns()) * 1e-3);
  }
  const std::size_t rss_after = vm_rss_kb();
  for (const std::string& id : ids) {
    Timer t;
    (void)store.get(id);
    warm.push_back(static_cast<double>(t.elapsed_ns()) * 1e-3);
  }
  result.cold_us = summarize(cold);
  result.warm_us = summarize(warm);
  result.rss_delta_mb =
      static_cast<double>(rss_after - std::min(rss_before, rss_after)) / 1024.0;
  // Tear the fleet down before the next sweep measures its own RSS delta.
  for (const std::string& id : ids) store.erase(id);
  return result;
}

/// Single-stream latencies + serial-loop throughput over `batch`.
template <typename Engine>
StreamResult run_single_stream(Engine engine, const std::vector<Matrix>& batch,
                               std::size_t repeats) {
  for (const Matrix& series : batch) engine.classify(series);  // warmup
  Vector latencies;
  latencies.reserve(batch.size() * repeats);
  Timer total;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const Matrix& series : batch) {
      Timer t;
      engine.classify(series);
      latencies.push_back(static_cast<double>(t.elapsed_ns()) * 1e-3);
    }
  }
  StreamResult result;
  result.latency_us = summarize(latencies);
  result.serial_sps =
      static_cast<double>(batch.size() * repeats) / total.elapsed_seconds();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfr::bench;

  CliParser cli("bench_serving",
                "streaming-engine latency percentiles and batch throughput");
  add_dataset_options(cli, "ECG,JPVOW");
  cli.add_option("nodes", "virtual nodes Nx", "30");
  cli.add_option("batch", "batch size for throughput runs", "256");
  cli.add_option("repeats", "latency passes over the batch", "3");
  cli.add_option("lanes", "batched-engine lanes / server max_batch", "8");
  try {
    cli.parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << e.what() << '\n' << cli.help_text();
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  const ScaleOptions options = read_dataset_options(cli);
  const std::size_t nodes = cli.get_u64("nodes");
  const std::size_t batch_size = cli.get_u64("batch");
  const std::size_t repeats = std::max<std::size_t>(1, cli.get_u64("repeats"));
  const std::size_t lanes = std::clamp<std::size_t>(
      cli.get_u64("lanes"), 1, dfr::simd::kBatchedMaxLanes);
  const unsigned ncores = dfr::hardware_threads();
  // Oversubscribed rows on small hosts are noise, not data: mark them
  // instead of timing them.
  const auto skip_marker = [&](unsigned want) {
    return (ncores < 4 && want > ncores)
               ? "skipped(ncores=" + std::to_string(ncores) + ")"
               : std::string();
  };

  const std::vector<DatasetSpec> specs = selected_specs(cli);

  const unsigned thread_sweep[] = {1, 2, 4, 8};

  ConsoleTable latency_table({"dataset", "datapath", "T", "V", "p50 us",
                              "p90 us", "p99 us", "max us"});
  ConsoleTable throughput_table(
      {"dataset", "datapath", "threads", "series/s", "speedup"});
  ConsoleTable server_table({"dataset", "models", "workers", "req/s",
                             "p50 us", "p90 us", "p99 us"});
  ConsoleTable fleet_table(
      {"dataset", "row", "cold p50 us", "warm p50 us", "rss_delta_mb"});
  std::vector<std::string> shed_lines;  // printed after the tables

  for (const DatasetSpec& spec : specs) {
    const DatasetPair data = prepare_dataset(spec, options);
    const LoadedModel model =
        make_serving_model(data.test, nodes, options.seed);
    // Held by shared_ptr so the batched quantized engine can share ownership.
    auto quantized_ptr =
        std::make_shared<QuantizedDfr>(model, QuantizedInferenceConfig{});
    quantized_ptr->calibrate(data.train);
    const QuantizedDfr& quantized = *quantized_ptr;
    const std::vector<Matrix> batch = make_batch(data.test, batch_size);

    struct Datapath {
      std::string name;
      StreamResult stream;
      std::function<std::vector<int>(unsigned)> run_batch;
    };
    // The scalar reference rows fan make_engine out over the pool the way
    // classify_batch fans out the SIMD engines.
    const ModelArtifactPtr artifact = model.artifact();
    const auto reference_batch = [&batch](const auto& make) {
      return [&batch, make](unsigned threads) {
        std::vector<int> out(batch.size());
        for_each_with_engine(batch.size(), threads, make,
                             [&](auto& engine, std::size_t i) {
                               out[i] = engine.classify(batch[i]);
                             });
        return out;
      };
    };
    std::vector<Datapath> datapaths;
    datapaths.push_back(
        {"float", run_single_stream(make_engine(model), batch, repeats),
         reference_batch([&] { return make_engine(artifact); })});
    datapaths.push_back(
        {"simd-" + std::string(simd::backend_name(simd::active_backend())),
         run_single_stream(make_simd_engine(model), batch, repeats),
         [&](unsigned threads) {
           return classify_batch(artifact, std::span<const Matrix>(batch),
                                 threads);
         }});
    datapaths.push_back(
        {"quant-scalar",
         run_single_stream(make_engine(quantized), batch, repeats),
         reference_batch([&] { return make_engine(quantized); })});
    datapaths.push_back(
        {"quant-" + std::string(simd::backend_name(simd::active_backend())),
         run_single_stream(make_simd_engine(quantized), batch, repeats),
         [&](unsigned threads) {
           return classify_batch(quantized, std::span<const Matrix>(batch),
                                 threads);
         }});

    for (const Datapath& dp : datapaths) {
      const Summary& lat = dp.stream.latency_us;
      latency_table.add_row(
          {spec.id, dp.name, std::to_string(data.test.length()),
           std::to_string(data.test.channels()), fmt_double(lat.p50, 1),
           fmt_double(lat.p90, 1), fmt_double(lat.p99, 1),
           fmt_double(lat.max, 1)});

      for (unsigned threads : thread_sweep) {
        const std::string marker = skip_marker(threads);
        if (!marker.empty()) {
          throughput_table.add_row(
              {spec.id, dp.name, std::to_string(threads), marker, marker});
          continue;
        }
        // Untimed warm-up: the first threaded run pays the lazy creation of
        // the process-wide pool, which must not land in a recorded cell.
        dp.run_batch(threads);
        Timer t;
        const std::vector<int> predictions = dp.run_batch(threads);
        const double seconds = t.elapsed_seconds();
        const double sps = static_cast<double>(predictions.size()) / seconds;
        const double speedup = sps / dp.stream.serial_sps;
        throughput_table.add_row({spec.id, dp.name, std::to_string(threads),
                                  fmt_double(sps, 0), fmt_double(speedup, 2)});
      }
    }

    // Cross-request batched SoA engine: one engine, `lanes` concurrent
    // series per call. The speedup column is the headline batched metric —
    // batched series/s over the single-series simd-<backend> serial loop
    // (same backend, same model), i.e. what coalescing alone buys.
    {
      const std::string backend(simd::backend_name(simd::active_backend()));
      const ModelArtifactPtr artifact = model.artifact("bench");
      struct BatchedRow {
        std::string name;
        StreamResult stream;
        double baseline_sps;  // single-series simd serial loop, same family
      };
      const BatchedRow batched_rows[] = {
          {"batched-" + backend,
           run_batched_stream(make_batched_engine(artifact, lanes), batch,
                              lanes, repeats),
           datapaths[1].stream.serial_sps},
          {"batched-quant-" + backend,
           run_batched_stream(make_batched_engine(quantized_ptr, lanes), batch,
                              lanes, repeats),
           datapaths[3].stream.serial_sps},
      };
      for (const BatchedRow& row : batched_rows) {
        const Summary& lat = row.stream.latency_us;
        const double batch_speedup = row.stream.serial_sps / row.baseline_sps;
        latency_table.add_row(
            {spec.id, row.name, std::to_string(data.test.length()),
             std::to_string(data.test.channels()), fmt_double(lat.p50, 1),
             fmt_double(lat.p90, 1), fmt_double(lat.p99, 1),
             fmt_double(lat.max, 1)});
        throughput_table.add_row({spec.id, row.name,
                                  "1x" + std::to_string(lanes) + "lanes",
                                  fmt_double(row.stream.serial_sps, 0),
                                  fmt_double(batch_speedup, 2)});
      }
    }

    // Multi-model serving: M models behind the request-queue server, traffic
    // interleaved round-robin across them (mixed routing on every worker).
    // Every artifact carries a calibrated quantized twin so the same
    // registry serves the per-request quantized routing rows.
    for (std::size_t num_models : {1u, 2u, 4u}) {
      std::vector<std::string> ids;
      serve::ModelRegistry registry;
      for (std::size_t m = 0; m < num_models; ++m) {
        ids.push_back("m" + std::to_string(m));
        const LoadedModel served =
            make_serving_model(data.test, nodes, options.seed + m);
        QuantizedDfr served_quant(served, QuantizedInferenceConfig{});
        served_quant.calibrate(data.train);
        registry.register_model(with_quantized(
            served.artifact(ids.back()),
            std::make_shared<const QuantizedDfr>(std::move(served_quant))));
      }
      struct TrafficKind {
        const char* suffix;  // "" = float, "-quant" = quantized
        serve::RequestOptions options;
      };
      const TrafficKind traffic_kinds[] = {
          {"", serve::RequestOptions{}},
          {"-quant", serve::RequestOptions{serve::EngineVariant::kQuantized}},
      };
      for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        const std::string marker = skip_marker(static_cast<unsigned>(workers));
        if (!marker.empty()) {
          for (const TrafficKind& kind : traffic_kinds) {
            server_table.add_row(
                {spec.id, std::to_string(num_models) + kind.suffix,
                 std::to_string(workers), marker, marker, marker, marker});
          }
          continue;
        }
        serve::InferenceServer server(
            registry, {.workers = workers, .queue_capacity = batch.size()});
        // Same registry and traffic through a micro-batching server: queued
        // neighbors for one (model, variant, shape) coalesce into SoA
        // batches of up to `lanes` lanes.
        serve::InferenceServer batched_server(
            registry, {.workers = workers,
                       .queue_capacity = batch.size(),
                       .max_batch = lanes,
                       .batch_window_us = 200});
        for (const TrafficKind& kind : traffic_kinds) {
          const ServerRunResult run =
              run_server_traffic(server, ids, batch, repeats, kind.options);
          const ServerRunResult batched_run = run_server_traffic(
              batched_server, ids, batch, repeats, kind.options);
          server_table.add_row(
              {spec.id, std::to_string(num_models) + kind.suffix,
               std::to_string(workers), fmt_double(run.requests_per_s, 0),
               fmt_double(run.latency_us.p50, 1),
               fmt_double(run.latency_us.p90, 1),
               fmt_double(run.latency_us.p99, 1)});
          server_table.add_row(
              {spec.id, std::to_string(num_models) + kind.suffix + "+batch",
               std::to_string(workers),
               fmt_double(batched_run.requests_per_s, 0),
               fmt_double(batched_run.latency_us.p50, 1),
               fmt_double(batched_run.latency_us.p90, 1),
               fmt_double(batched_run.latency_us.p99, 1)});
        }
      }
    }

    // Model-fleet sweep through the ArtifactStore: N ids (cycling 16
    // distinct .dfrm v2 files) cold-faulted then warm-hit. The cold-sweep
    // VmRSS delta is the mapped pages (the store asks the kernel to page
    // each mapping in ahead of first use); no id heap-allocates weights.
    {
      std::error_code ec;
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("dfr_fleet_" + spec.id + "_" + std::to_string(::getpid()));
      std::filesystem::create_directories(dir, ec);
      const std::vector<std::string> files =
          write_fleet_files(dir, data.test, nodes, options.seed, 16);
      serve::ModelRegistry fleet_registry;
      for (std::size_t num_models : {16u, 256u, 1024u}) {
        const FleetResult fleet = run_fleet(fleet_registry, files, num_models);
        fleet_table.add_row({spec.id,
                             "fleet-" + std::to_string(num_models) + "m",
                             fmt_double(fleet.cold_us.p50, 1),
                             fmt_double(fleet.warm_us.p50, 2),
                             fmt_double(fleet.rss_delta_mb, 2)});
      }
      std::filesystem::remove_all(dir, ec);
    }

    // Offered-deadline shed: one worker, every request submitted with a
    // deadline a few single-stream service times wide, so most of the
    // queue cannot make it. The server sheds late requests with typed
    // kDeadlineExceeded before spending engine time on them.
    {
      serve::ModelRegistry shed_registry;
      shed_registry.register_model(model.artifact("shed"));
      serve::InferenceServer shed_server(
          shed_registry, {.workers = 1, .queue_capacity = batch.size()});
      serve::RequestOptions shed_opts;
      shed_opts.deadline_us = static_cast<std::uint64_t>(
          std::max(100.0, 4.0 * datapaths[0].stream.latency_us.p50));
      std::vector<serve::InferFuture> futures;
      futures.reserve(batch.size());
      for (const Matrix& series : batch) {
        futures.push_back(shed_server.submit("shed", series, shed_opts));
      }
      std::size_t shed = 0;
      std::size_t completed = 0;
      for (serve::InferFuture& future : futures) {
        const serve::RequestStatus status = future.get().status;
        if (status == serve::RequestStatus::kDeadlineExceeded) {
          ++shed;
        } else if (status == serve::RequestStatus::kOk) {
          ++completed;
        }
      }
      const double frac =
          static_cast<double>(shed) / static_cast<double>(futures.size());
      shed_lines.push_back(
          "shed-deadline (" + spec.id + "): offered=" +
          std::to_string(futures.size()) + " completed=" +
          std::to_string(completed) + " shed=" +
          std::to_string(shed) + " shed_frac=" + fmt_double(frac, 2) +
          " deadline_us=" + std::to_string(shed_opts.deadline_us));
    }
  }

  std::cout << "SIMD dispatch: " << simd::backend_name(simd::active_backend())
            << " (best available: "
            << simd::backend_name(simd::best_backend())
            << "; override with DFR_SIMD=scalar|avx2|avx512|neon)\n\n";
  std::cout << "single-stream latency (one engine, reused scratch):\n";
  latency_table.print();
  std::cout << "\nbatch throughput (classify_batch vs serial per-series loop; "
               "speedup is hardware-dependent):\n";
  throughput_table.print();
  std::cout << "\nmulti-model serving (request-queue InferenceServer, "
               "round-robin traffic; latency = queue wait + inference):\n";
  server_table.print();
  std::cout << "\nmodel fleet through the ArtifactStore (cold fault-in vs "
               "warm hit; rss_delta_mb = VmRSS growth of the cold sweep):\n";
  fleet_table.print();
  std::cout << "\nSLO-aware admission (deadline shed before engine time):\n";
  for (const std::string& line : shed_lines) std::cout << line << '\n';
  return 0;
}
