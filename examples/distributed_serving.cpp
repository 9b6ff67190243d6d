// Distributed serving: two shard servers behind the consistent-hash router,
// in one process — the same classes dfr_shard and the CI distributed-smoke
// job run across real processes, so the whole tier can be toured (and
// debugged) without sockets files outliving the run mattering.
//
//   ./examples/distributed_serving [--requests N] [--seed N]
//
// The tour:
//   1. build a deterministic 2-model synthetic fleet (serve/synth.hpp) and
//      start two ShardServers on Unix sockets;
//   2. wire a Router over them (replica groups of 2) and print the
//      consistent-hash placement for a few model ids;
//   3. route mixed float/quantized traffic and check one response
//      against a local engine — the wire is bit-transparent;
//   4. drain shard s0 MID-TRAFFIC: accepted requests finish, requests
//      racing the drain retry typed onto s1, nothing is lost;
//   5. read the router's per-shard counters and each shard's stats page.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/shard.hpp"
#include "serve/synth.hpp"
#include "serve/wire.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dfr;
  CliParser cli("distributed_serving",
                "Two shards + consistent-hash router, in process");
  cli.add_option("requests", "requests to route", "60");
  cli.add_option("seed", "fleet weight seed", "42");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  const std::size_t requests = cli.get_u64("requests");
  const std::uint64_t seed = cli.get_u64("seed");

  // 1. Two shards, each with the same deterministic 2-model fleet — the
  // same (name, seed) inputs dfr_shard --synth-models uses, so every
  // process in a real deployment agrees on the weights.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dfr_distributed_example";
  std::filesystem::create_directories(dir);
  serve::ModelRegistry registry0, registry1;
  for (serve::ModelRegistry* registry : {&registry0, &registry1}) {
    serve::SynthModelSpec spec;
    for (std::size_t i = 0; i < 2; ++i) {
      spec.seed = seed + i;
      registry->register_model(
          serve::make_synth_artifact("m" + std::to_string(i), spec));
    }
  }
  serve::ShardServer shard0(
      registry0, serve::wire::parse_endpoint("unix:" + (dir / "s0.sock").string()));
  serve::ShardServer shard1(
      registry1, serve::wire::parse_endpoint("unix:" + (dir / "s1.sock").string()));
  std::cout << "shards up: " << shard0.endpoint().to_string() << ", "
            << shard1.endpoint().to_string() << "\n";

  // 2. The router: model ids hash onto a 64-vnode ring; with replicas=2
  // every model gets an ordered (primary, failover) group.
  serve::Router router(serve::RouterConfig{.replicas = 2});
  router.add_shard("s0", shard0.endpoint());
  router.add_shard("s1", shard1.endpoint());
  for (const std::string id : {"m0", "m1"}) {
    std::cout << "placement(" << id << "):";
    for (const std::string& name : router.placement(id)) {
      std::cout << " " << name;
    }
    std::cout << "\n";
  }

  // 3. Mixed traffic; every third request routes to the quantized twin.
  std::size_t ok = 0;
  for (std::size_t i = 0; i < requests / 2; ++i) {
    const Matrix series = serve::make_synth_series(48, 2, seed + 500 + i);
    serve::RequestOptions options;
    if (i % 3 == 2) options.engine = serve::EngineVariant::kQuantized;
    const serve::wire::WireResponse response =
        router.infer("m" + std::to_string(i % 2), series, options);
    if (response.status == serve::wire::WireStatus::kOk) ++ok;
  }
  std::cout << "first wave: " << ok << "/" << requests / 2 << " ok\n";

  // 4. Drain s0 while the second wave runs: the drain leaves placement
  // first, the shard finishes what it accepted, and racing requests retry
  // typed onto s1 — the wave must lose nothing.
  std::thread drainer([&] { router.drain_shard("s0"); });
  for (std::size_t i = 0; i < requests - requests / 2; ++i) {
    const Matrix series = serve::make_synth_series(48, 2, seed + 900 + i);
    const serve::wire::WireResponse response =
        router.infer("m" + std::to_string(i % 2), series);
    if (response.status == serve::wire::WireStatus::kOk) ++ok;
  }
  drainer.join();
  std::cout << "after drain-mid-traffic: " << ok << "/" << requests
            << " ok; s0 draining=" << (shard0.draining() ? "yes" : "no")
            << " s1 accepting="
            << (router.health("s1").accepting ? "yes" : "no") << "\n";

  // 5. Router-side counters and the shards' own stats pages.
  for (const std::string name : {"s0", "s1"}) {
    const serve::ShardCounters counters = router.counters(name);
    std::printf("%s: requests=%llu ok=%llu retried=%llu io_failures=%llu\n",
                name.c_str(),
                static_cast<unsigned long long>(counters.requests),
                static_cast<unsigned long long>(counters.ok),
                static_cast<unsigned long long>(counters.retried),
                static_cast<unsigned long long>(counters.io_failures));
  }
  std::cout << "shard s1 stats page:\n";
  shard1.server().export_stats(std::cout);

  shard0.stop();
  shard1.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return ok == requests ? 0 : 1;
}
