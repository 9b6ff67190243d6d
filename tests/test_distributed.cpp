// Distributed-tier tests (serve/router.hpp + serve/shard.hpp): consistent-
// hash placement is deterministic across router instances, spreads models
// across the fleet, and remaps only a removed shard's keys; a 2-shard tier
// behind the router serves BIT-identical logits to a single in-process
// InferenceServer for the same requests (float and quantized); draining a
// shard under live traffic loses not a single accepted request (the typed
// kShutdown retry path moves traffic to the surviving replica); a dead
// replica is skipped via WireIoError retry; and authoritative rejections
// (unknown model) are returned as-is, never retried. Shards run in-process
// on Unix sockets under a private temp dir, so the suite is hermetic.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/synth.hpp"
#include "serve/wire.hpp"
#include "util/check.hpp"

namespace {

using namespace dfr;
using namespace dfr::serve;

std::filesystem::path unique_socket_dir() {
  static std::atomic<int> counter{0};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dfr_dist_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir;
}

wire::Endpoint unix_endpoint(const std::filesystem::path& dir,
                             const std::string& name) {
  return wire::parse_endpoint("unix:" + (dir / name).string());
}

/// The shared 2-model synthetic fleet: both shards and the local reference
/// registry build m0/m1 from the same specs (the dfr_shard --synth-models
/// convention: per-model seed = base + index).
void register_synth_fleet(ModelRegistry& registry) {
  SynthModelSpec spec;
  for (std::size_t i = 0; i < 2; ++i) {
    spec.seed = 42 + i;
    registry.register_model(
        make_synth_artifact("m" + std::to_string(i), spec));
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---- placement -------------------------------------------------------------

TEST(Placement, DeterministicAcrossRouterInstances) {
  const auto build = [] {
    auto router = std::make_unique<Router>(RouterConfig{.replicas = 2});
    router->add_shard("alpha", wire::parse_endpoint("tcp:127.0.0.1:1"));
    router->add_shard("beta", wire::parse_endpoint("tcp:127.0.0.1:2"));
    router->add_shard("gamma", wire::parse_endpoint("tcp:127.0.0.1:3"));
    return router;
  };
  const auto a = build();
  const auto b = build();
  for (int i = 0; i < 64; ++i) {
    const std::string id = "model-" + std::to_string(i);
    const std::vector<std::string> pa = a->placement(id);
    ASSERT_EQ(pa.size(), 2u);
    EXPECT_NE(pa[0], pa[1]);  // replicas are distinct shards
    EXPECT_EQ(pa, b->placement(id));
    EXPECT_EQ(pa, a->placement(id));  // and stable on repeat
  }
}

TEST(Placement, SpreadsModelsAcrossTheFleet) {
  Router router(RouterConfig{.replicas = 1});
  router.add_shard("alpha", wire::parse_endpoint("tcp:127.0.0.1:1"));
  router.add_shard("beta", wire::parse_endpoint("tcp:127.0.0.1:2"));
  router.add_shard("gamma", wire::parse_endpoint("tcp:127.0.0.1:3"));
  std::set<std::string> primaries;
  for (int i = 0; i < 200; ++i) {
    primaries.insert(router.placement("model-" + std::to_string(i))[0]);
  }
  // 200 ids over 3 shards with 64 vnodes each: every shard owns some keys.
  EXPECT_EQ(primaries.size(), 3u);
}

TEST(Placement, RemovalRemapsOnlyTheRemovedShardsKeys) {
  Router router(RouterConfig{.replicas = 1});
  for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
    router.add_shard(name, wire::parse_endpoint("tcp:127.0.0.1:1"));
  }
  std::vector<std::string> before;
  for (int i = 0; i < 300; ++i) {
    before.push_back(router.placement("model-" + std::to_string(i))[0]);
  }
  router.remove_shard("beta");
  std::size_t survivors_moved = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string after =
        router.placement("model-" + std::to_string(i))[0];
    if (before[static_cast<std::size_t>(i)] == "beta") {
      EXPECT_NE(after, "beta");  // its keys slid to a survivor
    } else if (after != before[static_cast<std::size_t>(i)]) {
      ++survivors_moved;  // consistent hashing: this must not happen
    }
  }
  EXPECT_EQ(survivors_moved, 0u);

  // Re-adding restores the original placement exactly (name seeds the ring).
  router.add_shard("beta", wire::parse_endpoint("tcp:127.0.0.1:9"));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(router.placement("model-" + std::to_string(i))[0],
              before[static_cast<std::size_t>(i)]);
  }
}

TEST(Placement, Fnv1a64KnownVectors) {
  // Published FNV-1a 64 test vectors pin the ring hash across refactors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ---- 2-shard tier vs in-process server ------------------------------------

class TwoShardTier : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_socket_dir();
    register_synth_fleet(registry0_);
    register_synth_fleet(registry1_);
    shard0_ = std::make_unique<ShardServer>(registry0_,
                                            unix_endpoint(dir_, "s0.sock"));
    shard1_ = std::make_unique<ShardServer>(registry1_,
                                            unix_endpoint(dir_, "s1.sock"));
    router_ = std::make_unique<Router>(RouterConfig{.replicas = 2});
    router_->add_shard("s0", shard0_->endpoint());
    router_->add_shard("s1", shard1_->endpoint());
  }

  void TearDown() override {
    router_.reset();
    shard0_.reset();
    shard1_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  ModelRegistry registry0_;
  ModelRegistry registry1_;
  std::unique_ptr<ShardServer> shard0_;
  std::unique_ptr<ShardServer> shard1_;
  std::unique_ptr<Router> router_;
};

TEST_F(TwoShardTier, RoutedTrafficBitIdenticalToInProcessServer) {
  ModelRegistry local_registry;
  register_synth_fleet(local_registry);
  InferenceServer local(local_registry);

  for (int i = 0; i < 24; ++i) {
    const std::string model_id = "m" + std::to_string(i % 2);
    const Matrix series = make_synth_series(48, 2, 9000 + i);
    RequestOptions options;
    if (i % 3 == 2) options.engine = EngineVariant::kQuantized;

    const wire::WireResponse routed =
        router_->infer(model_id, series, options);
    ASSERT_EQ(routed.status, wire::WireStatus::kOk) << "request " << i;

    InferFuture future = local.submit(model_id, series, options);
    const InferResult& reference = future.get();
    ASSERT_EQ(reference.status, RequestStatus::kOk);

    EXPECT_EQ(routed.label, reference.label) << "request " << i;
    ASSERT_EQ(routed.logits.size(), reference.logits.size());
    for (std::size_t k = 0; k < reference.logits.size(); ++k) {
      EXPECT_TRUE(same_bits(routed.logits[k], reference.logits[k]))
          << "request " << i << " logit " << k;
    }
  }
}

TEST_F(TwoShardTier, DrainMidTrafficLosesNoAcceptedRequest) {
  constexpr int kRequests = 200;
  const Matrix series = make_synth_series(32, 2, 123);

  std::atomic<int> ok{0};
  std::atomic<int> not_ok{0};
  std::thread traffic([&] {
    for (int i = 0; i < kRequests; ++i) {
      const wire::WireResponse response =
          router_->infer("m" + std::to_string(i % 2), series);
      if (response.status == wire::WireStatus::kOk) {
        ++ok;
      } else {
        ++not_ok;
      }
    }
  });

  // Let traffic start, then drain s0 while requests are in flight. The
  // retry policy must absorb the drain: requests racing it land on s1.
  while (ok.load() < kRequests / 10) std::this_thread::yield();
  router_->drain_shard("s0");
  traffic.join();

  EXPECT_EQ(ok.load(), kRequests);
  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_TRUE(shard0_->draining());

  // Every request resolved somewhere: the two shards' completed counters
  // account for every accepted request (retries re-sent, never lost).
  std::uint64_t completed = 0;
  for (InferenceServer* server :
       {&shard0_->server(), &shard1_->server()}) {
    for (const auto& [id, stats] : server->stats()) {
      completed += stats.completed;
    }
  }
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kRequests));

  // After the drain, s0 is out of placement: every group is just s1.
  for (int i = 0; i < 8; ++i) {
    const std::vector<std::string> group =
        router_->placement("model-" + std::to_string(i));
    ASSERT_EQ(group.size(), 1u);
    EXPECT_EQ(group[0], "s1");
  }
}

TEST_F(TwoShardTier, HealthReflectsDrainState) {
  wire::HealthInfo info = router_->health("s0");
  EXPECT_TRUE(info.accepting);
  EXPECT_FALSE(info.draining);
  EXPECT_EQ(info.models, 2u);

  router_->drain_shard("s0");
  // The shard still answers health probes after leaving placement.
  info = router_->health("s0");
  EXPECT_FALSE(info.accepting);
  EXPECT_TRUE(info.draining);
}

TEST_F(TwoShardTier, AuthoritativeRejectionIsNeverRetried) {
  const Matrix series = make_synth_series(16, 2, 7);
  const wire::WireResponse response = router_->infer("no-such-model", series);
  EXPECT_EQ(response.status, wire::WireStatus::kUnknownModel);
  // Exactly one shard answered; the rejection was not retried on the other.
  const ShardCounters c0 = router_->counters("s0");
  const ShardCounters c1 = router_->counters("s1");
  EXPECT_EQ(c0.rejected + c1.rejected, 1u);
  EXPECT_EQ(c0.retried + c1.retried, 0u);
}

// ---- replica failover ------------------------------------------------------

TEST(Failover, DeadPrimaryRetriesOntoLiveReplica) {
  const std::filesystem::path dir = unique_socket_dir();
  ModelRegistry registry;
  register_synth_fleet(registry);
  ShardServer live(registry, unix_endpoint(dir, "live.sock"));

  Router router(RouterConfig{.replicas = 2});
  router.add_shard("dead", unix_endpoint(dir, "nobody-listens.sock"));
  router.add_shard("live", live.endpoint());

  // Find a served model id whose PRIMARY is the dead shard so the retry
  // path is actually exercised (placement is deterministic, so check once).
  std::string victim_id;
  for (const std::string id : {"m0", "m1"}) {
    if (router.placement(id)[0] == "dead") {
      victim_id = id;
      break;
    }
  }
  const Matrix series = make_synth_series(16, 2, 7);
  if (victim_id.empty()) {
    // Neither served id hashes primary onto the dead shard — the request
    // must simply succeed on the live primary without any retry.
    const wire::WireResponse response = router.infer("m0", series);
    EXPECT_EQ(response.status, wire::WireStatus::kOk);
    EXPECT_EQ(router.counters("dead").io_failures, 0u);
  } else {
    const wire::WireResponse response = router.infer(victim_id, series);
    EXPECT_EQ(response.status, wire::WireStatus::kOk);
    EXPECT_GE(router.counters("dead").io_failures, 1u);
    EXPECT_GE(router.counters("dead").retried, 1u);
    EXPECT_EQ(router.counters("live").ok, 1u);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---- load-aware replica choice ---------------------------------------------

/// Deterministic p2c harness: poller off (health_poll_ms = 0), samples
/// injected via note_health, so the replica choice is a pure function of
/// the injected load picture.
class LoadAwareTier : public TwoShardTier {
 protected:
  static RouterConfig load_aware_config() {
    RouterConfig config;
    config.replicas = 2;
    config.health_poll_ms = 0;           // no poller: tests inject samples
    config.health_staleness_us = 60'000'000;  // fresh for the whole test
    return config;
  }

  void rebuild_router(RouterConfig config) {
    router_ = std::make_unique<Router>(config);
    router_->add_shard("s0", shard0_->endpoint());
    router_->add_shard("s1", shard1_->endpoint());
  }

  static wire::HealthInfo load_sample(std::uint32_t queue_depth,
                                      double ewma_us) {
    wire::HealthInfo info;
    info.accepting = true;
    info.models = 2;
    info.queue_depth = queue_depth;
    info.queue_capacity = 256;
    info.ewma_service_us = ewma_us;
    return info;
  }
};

TEST_F(LoadAwareTier, PowerOfTwoChoicesDivertsAwayFromTheLoadedPrimary) {
  rebuild_router(load_aware_config());
  const std::vector<std::string> group = router_->placement("m0");
  ASSERT_EQ(group.size(), 2u);
  const std::string& primary = group[0];
  const std::string& alternate = group[1];

  // Primary reports a deep queue, alternate is idle: every first attempt
  // must divert to the alternate, and the divert is counted there.
  router_->note_health(primary, load_sample(50, 100.0));
  router_->note_health(alternate, load_sample(0, 100.0));
  const Matrix series = make_synth_series(16, 2, 41);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(router_->infer("m0", series).status, wire::WireStatus::kOk);
  }
  EXPECT_EQ(router_->counters(alternate).p2c_alternate, 8u);
  EXPECT_EQ(router_->counters(alternate).requests, 8u);
  EXPECT_EQ(router_->counters(primary).requests, 0u);

  // Flip the load picture: placement order wins again (counted on the
  // primary), traffic returns.
  router_->note_health(primary, load_sample(0, 100.0));
  router_->note_health(alternate, load_sample(50, 100.0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(router_->infer("m0", series).status, wire::WireStatus::kOk);
  }
  EXPECT_EQ(router_->counters(primary).p2c_primary, 8u);
  EXPECT_EQ(router_->counters(primary).requests, 8u);
}

TEST_F(LoadAwareTier, StaleOrAbsentSamplesFallBackToPlacementOrder) {
  // Samples never injected: every request must take placement order and
  // count p2c_stale on the nominal primary — a dead health feed degrades
  // to exactly the pre-load-aware router.
  rebuild_router(load_aware_config());
  const std::vector<std::string> group = router_->placement("m0");
  ASSERT_EQ(group.size(), 2u);
  const Matrix series = make_synth_series(16, 2, 42);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(router_->infer("m0", series).status, wire::WireStatus::kOk);
  }
  EXPECT_EQ(router_->counters(group[0]).p2c_stale, 6u);
  EXPECT_EQ(router_->counters(group[0]).requests, 6u);
  EXPECT_EQ(router_->counters(group[1]).requests, 0u);

  // An aged-out sample is as good as none: inject, then shrink the
  // staleness bound to zero via a fresh router and confirm fallback.
  RouterConfig config = load_aware_config();
  config.health_staleness_us = 0;
  rebuild_router(config);
  router_->note_health(group[0], load_sample(50, 100.0));
  router_->note_health(group[1], load_sample(0, 100.0));
  ASSERT_EQ(router_->infer("m0", series).status, wire::WireStatus::kOk);
  EXPECT_EQ(router_->counters(group[0]).p2c_stale, 1u);
  EXPECT_EQ(router_->counters(group[0]).requests, 1u);
}

TEST_F(LoadAwareTier, PolicyOffNeverReordersAndRetryWalkStillCoversGroup) {
  RouterConfig config = load_aware_config();
  config.load_aware = false;
  rebuild_router(config);
  const std::vector<std::string> group = router_->placement("m0");
  ASSERT_EQ(group.size(), 2u);
  // Even a screaming load signal must not move traffic with the policy off.
  router_->note_health(group[0], load_sample(1000, 10000.0));
  router_->note_health(group[1], load_sample(0, 1.0));
  const Matrix series = make_synth_series(16, 2, 43);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(router_->infer("m0", series).status, wire::WireStatus::kOk);
  }
  const ShardCounters c0 = router_->counters(group[0]);
  EXPECT_EQ(c0.requests, 5u);
  EXPECT_EQ(c0.p2c_primary + c0.p2c_alternate + c0.p2c_stale, 0u);

  // Load-aware ON with the primary diverted: kill the alternate and the
  // retry walk must still reach the (healthy) primary — the p2c swap only
  // reorders the first attempt, never shrinks the group.
  rebuild_router(load_aware_config());
  router_->note_health(group[0], load_sample(50, 100.0));
  router_->note_health(group[1], load_sample(0, 100.0));
  if (group[1] == "s0") {
    shard0_->stop();
  } else {
    shard1_->stop();
  }
  const wire::WireResponse response = router_->infer("m0", series);
  EXPECT_EQ(response.status, wire::WireStatus::kOk);
  EXPECT_EQ(router_->counters(group[1]).retried, 1u);
  EXPECT_EQ(router_->counters(group[0]).ok, 1u);
}

TEST_F(TwoShardTier, RouterExportStatsScrapeableFormat) {
  const Matrix series = make_synth_series(16, 2, 44);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(router_->infer("m" + std::to_string(i % 2), series).status,
              wire::WireStatus::kOk);
  }
  std::ostringstream out;
  router_->export_stats(out);
  const std::string page = out.str();
  EXPECT_NE(page.find("dfr_router_shards_live 2"), std::string::npos) << page;
  for (const char* shard : {"s0", "s1"}) {
    for (const char* metric :
         {"dfr_router_requests_total", "dfr_router_ok_total",
          "dfr_router_rejected_total", "dfr_router_retried_total",
          "dfr_router_io_failures_total", "dfr_router_p2c_primary_total",
          "dfr_router_p2c_alternate_total", "dfr_router_p2c_stale_total",
          "dfr_router_health_probes_total",
          "dfr_router_health_failures_total"}) {
      const std::string line =
          std::string(metric) + "{shard=\"" + shard + "\"} ";
      EXPECT_NE(page.find(line), std::string::npos)
          << "missing " << line << "\n" << page;
    }
  }
  // Every request went somewhere: the two requests_total lines sum to 4.
  EXPECT_EQ(router_->counters("s0").requests + router_->counters("s1").requests,
            4u);
}

TEST_F(TwoShardTier, BackgroundPollerPopulatesHealthGauges) {
  // A router with the poller ON (tight period) fills the cached gauges from
  // real shard health bodies without any traffic.
  Router poller_router(RouterConfig{
      .replicas = 2, .load_aware = true, .health_poll_ms = 10});
  poller_router.add_shard("s0", shard0_->endpoint());
  poller_router.add_shard("s1", shard1_->endpoint());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const ShardCounters c0 = poller_router.counters("s0");
    const ShardCounters c1 = poller_router.counters("s1");
    if (c0.health_probes > 0 && c1.health_probes > 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "poller never probed both shards";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::ostringstream out;
  poller_router.export_stats(out);
  EXPECT_NE(out.str().find("dfr_router_shard_queue_depth{shard=\"s0\"}"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("dfr_router_shard_ewma_service_us{shard=\"s1\"}"),
            std::string::npos)
      << out.str();
}

TEST(Failover, AllReplicasDeadIsTypedUnavailable) {
  const std::filesystem::path dir = unique_socket_dir();
  Router router(RouterConfig{.replicas = 2});
  router.add_shard("d0", unix_endpoint(dir, "d0.sock"));
  router.add_shard("d1", unix_endpoint(dir, "d1.sock"));
  const Matrix series = make_synth_series(8, 2, 7);
  const wire::WireResponse response = router.infer("m0", series);
  EXPECT_EQ(response.status, wire::WireStatus::kUnavailable);

  // An empty fleet is equally typed, not an exception.
  router.remove_shard("d0");
  router.remove_shard("d1");
  EXPECT_EQ(router.infer("m0", series).status,
            wire::WireStatus::kUnavailable);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
