// Tests for the multi-model serving subsystem (serve/registry.hpp,
// serve/server.hpp): registry register/get/evict/hot-swap semantics, request
// routing correctness (bit-identical logits vs direct single-threaded
// LoadedModel::infer at every worker count, and server results vs direct
// engines on every SIMD backend), hot-swap under concurrent traffic, model
// lifetime (an evicted model is freed once its last request resolves),
// backpressure, shutdown draining, per-model stats, and the
// zero-steady-state-allocation guarantee of the submit path, unbatched and
// micro-batched.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

// ---- allocation instrumentation (same scheme as test_serve.cpp) ------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfr {
namespace {

using serve::EngineVariant;
using serve::InferenceServer;
using serve::InferFuture;
using serve::InferResult;
using serve::ModelRegistry;
using serve::RequestStatus;
using serve::ServerConfig;

// ---- helpers ---------------------------------------------------------------

/// Deployment-shaped model with random (but deterministic) weights; routing
/// correctness depends only on shapes and weight values, never on training.
LoadedModel make_model(std::size_t nodes, std::size_t channels, int classes,
                       std::uint64_t seed) {
  Rng rng(seed);
  LoadedModel model;
  model.params = DfrParams{0.1, 0.05};
  model.mask = Mask(nodes, channels, MaskKind::kBinary, rng);
  Matrix w(static_cast<std::size_t>(classes), dprr_dim(nodes));
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) w(i, j) = rng.uniform(-1.0, 1.0);
  }
  Vector b(w.rows(), 0.0);
  for (double& v : b) v = rng.uniform(-0.1, 0.1);
  model.readout = OutputLayer(std::move(w), std::move(b));
  return model;
}

/// `model` as artifact `id`, carrying a quantized twin (default config).
ModelArtifactPtr artifact_with_twin(const LoadedModel& model,
                                    const std::string& id) {
  return with_quantized(model.artifact(id),
                        std::make_shared<const QuantizedDfr>(
                            model, QuantizedInferenceConfig{}));
}

Matrix random_series(std::size_t t_len, std::size_t channels, Rng& rng) {
  Matrix m(t_len, channels);
  for (std::size_t k = 0; k < t_len; ++k) {
    for (std::size_t v = 0; v < channels; ++v) m(k, v) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

void expect_bit_identical(const Vector& expected,
                          const std::span<const double> got,
                          const std::string& context) {
  ASSERT_EQ(expected.size(), got.size()) << context;
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(expected[c], got[c]) << context << " class " << c;
  }
}

// ---- ModelRegistry ---------------------------------------------------------

TEST(ModelRegistry, RegisterGetEvict) {
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.get("ecg"), nullptr);

  const LoadedModel model = make_model(8, 2, 3, 1);
  registry.register_model(model.artifact("ecg"));
  EXPECT_EQ(registry.size(), 1u);
  const ModelArtifactPtr got = registry.get("ecg");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->name, "ecg");
  EXPECT_EQ(got->mask.nodes(), 8u);

  registry.register_model(make_model(9, 2, 3, 2).artifact("vow"));
  EXPECT_EQ(registry.ids(), (std::vector<std::string>{"ecg", "vow"}));

  EXPECT_TRUE(registry.evict("ecg"));
  EXPECT_FALSE(registry.evict("ecg"));
  EXPECT_EQ(registry.get("ecg"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
  // The evicted artifact stays alive for holders of the shared_ptr.
  EXPECT_EQ(got->mask.nodes(), 8u);
}

TEST(ModelRegistry, ReRegisterHotSwapsAtomically) {
  ModelRegistry registry;
  const ModelArtifactPtr v1 = make_model(8, 2, 3, 1).artifact("m");
  const ModelArtifactPtr v2 = make_model(8, 2, 3, 2).artifact("m");
  registry.register_model(v1);
  EXPECT_EQ(registry.get("m"), v1);
  registry.register_model(v2);
  EXPECT_EQ(registry.get("m"), v2);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, RejectsAnonymousOrNullArtifacts) {
  ModelRegistry registry;
  EXPECT_THROW(registry.register_model(nullptr), CheckError);
  EXPECT_THROW(registry.register_model(make_model(4, 1, 2, 3).artifact()),
               CheckError);
}

TEST(WithQuantized, ValidatesShapeAndNullness) {
  const LoadedModel model = make_model(10, 2, 3, 43);
  auto quantized = std::make_shared<const QuantizedDfr>(
      model, QuantizedInferenceConfig{});
  EXPECT_THROW((void)with_quantized(nullptr, quantized), CheckError);
  EXPECT_THROW((void)with_quantized(model.artifact("m"), nullptr), CheckError);
  // Mismatched shape: a twin quantizing a different model.
  const LoadedModel wrong = make_model(12, 2, 3, 44);
  EXPECT_THROW(
      (void)with_quantized(model.artifact("m"),
                           std::make_shared<const QuantizedDfr>(
                               wrong, QuantizedInferenceConfig{})),
      CheckError);
  const ModelArtifactPtr ok = with_quantized(model.artifact("m"), quantized);
  EXPECT_EQ(ok->quantized, quantized);
  EXPECT_EQ(ok->name, "m");
}

// A server's workers build each request's datapath on the backend active
// when it runs. On every available backend, a server built after
// force_backend(b) answers float requests bit-identical to
// make_simd_engine(artifact, b), unbatched and micro-batched, and quantized
// requests bit-identical to the scalar quantized engine (the exactness
// contract).
TEST(EnginePoolTest, EngineMatchesDirectInference) {
  const ModelArtifactPtr artifact =
      artifact_with_twin(make_model(10, 2, 3, 7), "m");
  ModelRegistry registry;
  registry.register_model(artifact);
  Rng rng(8);
  const Matrix series = random_series(30, 2, rng);
  QuantizedInferenceEngine quant_direct = make_engine(*artifact->quantized);
  const std::span<const double> q = quant_direct.infer(series);
  const Vector quant_expected(q.begin(), q.end());
  const serve::RequestOptions quant{.engine = EngineVariant::kQuantized};

  struct RestoreBackend {
    simd::Backend saved = simd::active_backend();
    ~RestoreBackend() { simd::force_backend(saved); }
  } restore;
  for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                          simd::Backend::kNeon, simd::Backend::kAvx512}) {
    if (!simd::backend_available(b)) continue;
    simd::force_backend(b);
    SimdInferenceEngine direct = make_simd_engine(artifact, b);
    const std::span<const double> z = direct.infer(series);
    const Vector expected(z.begin(), z.end());
    const int expected_label = static_cast<int>(
        std::max_element(expected.begin(), expected.end()) - expected.begin());
    for (std::size_t max_batch : {std::size_t{1}, std::size_t{8}}) {
      const std::string context = std::string(simd::backend_name(b)) +
                                  " max_batch=" + std::to_string(max_batch);
      InferenceServer server(registry,
                             {.workers = 1,
                              .queue_capacity = 16,
                              .max_batch = max_batch,
                              .batch_window_us = max_batch > 1 ? 2000u : 0u});
      // A burst of each family, so the micro-batched server runs lanes.
      std::vector<InferFuture> floats, quants;
      for (int i = 0; i < 4; ++i) floats.push_back(server.submit("m", series));
      for (int i = 0; i < 4; ++i) {
        quants.push_back(server.submit("m", series, quant));
      }
      for (const InferFuture& future : floats) {
        const InferResult& result = future.get();
        ASSERT_EQ(result.status, RequestStatus::kOk) << context;
        expect_bit_identical(expected, result.logits, context + " float");
        EXPECT_EQ(result.label, expected_label) << context;
#if defined(__x86_64__) || defined(_M_X64)
        if (b == simd::Backend::kScalar) {
          // The scalar kernels perform FloatDatapath's operations, so the
          // scalar backend is bit-identical on x86-64 (see test_simd.cpp's
          // FeaturesWithinUlpBoundAcrossNonlinearitiesAndSizes).
          InferenceEngine scalar = make_engine(artifact);
          const std::span<const double> s = scalar.infer(series);
          expect_bit_identical(Vector(s.begin(), s.end()), result.logits,
                               context + " scalar FloatDatapath");
        }
#endif
      }
      for (const InferFuture& future : quants) {
        const InferResult& result = future.get();
        ASSERT_EQ(result.status, RequestStatus::kOk) << context;
        expect_bit_identical(quant_expected, result.logits,
                             context + " quantized");
      }
    }
  }
}

// ---- InferenceServer: routing correctness ----------------------------------

class ServerRouting : public ::testing::Test {
 protected:
  static constexpr std::size_t kSeriesPerModel = 6;

  static void SetUpTestSuite() {
    model_a_ = new LoadedModel(make_model(10, 2, 3, 11));
    model_b_ = new LoadedModel(make_model(13, 3, 4, 12));  // distinct shape
    series_a_ = new std::vector<Matrix>();
    series_b_ = new std::vector<Matrix>();
    Rng rng(13);
    for (std::size_t i = 0; i < kSeriesPerModel; ++i) {
      series_a_->push_back(random_series(25, 2, rng));
      series_b_->push_back(random_series(31, 3, rng));
    }
  }
  static void TearDownTestSuite() {
    delete model_a_;
    delete model_b_;
    delete series_a_;
    delete series_b_;
    model_a_ = nullptr;
    model_b_ = nullptr;
    series_a_ = nullptr;
    series_b_ = nullptr;
  }

  static LoadedModel* model_a_;
  static LoadedModel* model_b_;
  static std::vector<Matrix>* series_a_;
  static std::vector<Matrix>* series_b_;
};

LoadedModel* ServerRouting::model_a_ = nullptr;
LoadedModel* ServerRouting::model_b_ = nullptr;
std::vector<Matrix>* ServerRouting::series_a_ = nullptr;
std::vector<Matrix>* ServerRouting::series_b_ = nullptr;

// Concurrent interleaved requests against two registered models return
// bit-identical logits to direct single-threaded LoadedModel::infer() (the
// SIMD engine on the active backend) at 1 and 8 workers.
TEST_F(ServerRouting, InterleavedRequestsBitIdenticalToDirectInfer) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  registry.register_model(model_b_->artifact("b"));

  for (std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    InferenceServer server(registry,
                           {.workers = workers, .queue_capacity = 256});
    // Interleave models and series in one submission wave so concurrent
    // workers route a mixed stream.
    struct Expected {
      const char* id;
      const Matrix* series;
    };
    std::vector<Expected> requests;
    std::vector<InferFuture> futures;
    for (int pass = 0; pass < 6; ++pass) {
      for (std::size_t i = 0; i < kSeriesPerModel; ++i) {
        requests.push_back({"a", &(*series_a_)[i]});
        requests.push_back({"b", &(*series_b_)[i]});
      }
    }
    futures.reserve(requests.size());
    for (const Expected& r : requests) {
      futures.push_back(server.submit(r.id, *r.series));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const InferResult& result = futures[i].get();
      ASSERT_EQ(result.status, RequestStatus::kOk)
          << "workers=" << workers << " request " << i;
      const LoadedModel& model =
          requests[i].id[0] == 'a' ? *model_a_ : *model_b_;
      const Vector expected = model.infer(*requests[i].series);
      expect_bit_identical(
          expected, result.logits,
          std::string("workers=") + std::to_string(workers) + " model " +
              requests[i].id + " request " + std::to_string(i));
      EXPECT_EQ(result.label,
                static_cast<int>(std::max_element(expected.begin(),
                                                  expected.end()) -
                                 expected.begin()));
      EXPECT_GT(result.latency_us, 0.0);
    }
    const serve::ModelServingStats stats_a = server.stats("a");
    const serve::ModelServingStats stats_b = server.stats("b");
    EXPECT_EQ(stats_a.completed, requests.size() / 2);
    EXPECT_EQ(stats_b.completed, requests.size() / 2);
    EXPECT_EQ(stats_a.errors, 0u);
    EXPECT_EQ(stats_a.latency_us.count,
              std::min<std::size_t>(requests.size() / 2, 512));
  }
}

TEST(NullArtifact, ConstructorsThrowTypedErrorInsteadOfDereferencing) {
  EXPECT_THROW((void)make_engine(ModelArtifactPtr{}), CheckError);
  EXPECT_THROW((void)make_simd_engine(ModelArtifactPtr{}), CheckError);
  EXPECT_THROW((void)make_engine(std::shared_ptr<const QuantizedDfr>{}),
               CheckError);
  const Matrix series(5, 2);
  EXPECT_THROW(
      (void)classify_batch(ModelArtifactPtr{}, std::span<const Matrix>(&series, 1)),
      CheckError);
}

TEST_F(ServerRouting, StatsTrackingIsBoundedAndImmuneToBogusIds) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1,
                                    .queue_capacity = 4,
                                    .latency_window = 16,
                                    .max_tracked_models = 3});
  EXPECT_EQ(server.submit("a", (*series_a_)[0]).get().status,
            RequestStatus::kOk);
  // A flood of distinct bogus ids is served (typed kUnknownModel results)
  // but claims no tracking slots.
  for (int i = 0; i < 50; ++i) {
    const std::string id = "bogus-" + std::to_string(i);
    EXPECT_EQ(server.submit(id, (*series_a_)[0]).get().status,
              RequestStatus::kUnknownModel);
  }
  EXPECT_EQ(server.stats().size(), 1u);
  // Registered-model churn is capped at max_tracked_models: registering and
  // serving more real models than the cap tracks only the first cap ids.
  for (int m = 0; m < 4; ++m) {
    const std::string id = "extra-" + std::to_string(m);
    registry.register_model(model_a_->artifact(id));
    EXPECT_EQ(server.submit(id, (*series_a_)[0]).get().status,
              RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats().size(), 3u);
  // Tracked ids keep counting throughout.
  EXPECT_EQ(server.submit("a", (*series_a_)[0]).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(server.stats("a").completed, 2u);
}

TEST_F(ServerRouting, UnknownModelYieldsTypedError) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 4});
  InferFuture future = server.submit("nope", (*series_a_)[0]);
  const InferResult& result = future.get();
  EXPECT_EQ(result.status, RequestStatus::kUnknownModel);
  EXPECT_EQ(result.label, -1);
  EXPECT_TRUE(result.logits.empty());
  // Unregistered ids never claim a stats slot (they could otherwise starve
  // real models of tracking); the typed result is the client's signal.
  EXPECT_EQ(server.stats("nope").errors, 0u);
  EXPECT_TRUE(server.stats().empty());
}

TEST_F(ServerRouting, MalformedSeriesYieldsTypedErrorNotCrash) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 4});
  const Matrix wrong_channels(5, model_a_->mask.channels() + 1);
  const InferResult& result = server.submit("a", wrong_channels).get();
  EXPECT_EQ(result.status, RequestStatus::kInvalidArgument);
  EXPECT_EQ(server.stats("a").errors, 1u);
}

TEST_F(ServerRouting, SyncClassifyBatchMatchesFreeFunction) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 4});
  const std::span<const Matrix> series(*series_a_);
  for (unsigned threads : {1u, 3u}) {
    EXPECT_EQ(server.classify_batch("a", series, threads),
              classify_batch(*model_a_, series, threads));
  }
  EXPECT_THROW((void)server.classify_batch("nope", series), CheckError);
  EXPECT_EQ(server.stats("a").completed, 2 * series.size());
}

// Per-request quantized routing: RequestOptions with EngineVariant::kQuantized
// serves the artifact's calibrated twin, bit-identical to direct scalar
// quantized inference, interleaved with float traffic on the same worker; a
// float-only artifact answers quantized requests with the typed
// kInvalidArgument.
TEST_F(ServerRouting, QuantizedRequestsRouteToTheQuantizedTwin) {
  auto quantized = std::make_shared<const QuantizedDfr>(
      *model_a_, QuantizedInferenceConfig{});
  ModelRegistry registry;
  registry.register_model(
      with_quantized(model_a_->artifact("a"), quantized));
  registry.register_model(model_b_->artifact("b"));  // float-only
  InferenceServer server(registry, {.workers = 2, .queue_capacity = 64});

  const serve::RequestOptions quant{.engine = EngineVariant::kQuantized};
  QuantizedInferenceEngine direct = make_engine(*quantized);
  for (std::size_t i = 0; i < kSeriesPerModel; ++i) {
    const Matrix& series = (*series_a_)[i];
    const Vector expected(direct.infer(series).begin(),
                          direct.infer(series).end());
    InferFuture quant_future = server.submit("a", series, quant);
    InferFuture float_future = server.submit("a", series);  // interleave
    const InferResult& result = quant_future.get();
    ASSERT_EQ(result.status, RequestStatus::kOk);
    expect_bit_identical(expected, result.logits,
                         "quantized request " + std::to_string(i));
    EXPECT_EQ(result.label, direct.classify(series));
    EXPECT_EQ(float_future.get().status, RequestStatus::kOk);
  }
  // Quantized request against a float-only artifact: typed client error.
  const InferResult& no_twin =
      server.submit("b", (*series_b_)[0], quant).get();
  EXPECT_EQ(no_twin.status, RequestStatus::kInvalidArgument);

  // The sync batch path routes the quantized variant the same way.
  const std::span<const Matrix> series(*series_a_);
  EXPECT_EQ(server.classify_batch("a", series, 2, quant),
            classify_batch(*quantized, series, 1));
  EXPECT_THROW((void)server.classify_batch("b", series, 1, quant), CheckError);
}

// ---- InferenceServer: eviction hygiene -------------------------------------

// Evicting a model under traffic: in-flight requests finish (kOk on the
// artifact they were routed to, or the typed kUnknownModel once the id is
// gone — never a crash or dangle), and the evicted model is reclaimed
// promptly (the artifact dies once its last in-flight holder drains) while
// traffic for other models keeps serving.
TEST_F(ServerRouting, EvictionUnderTrafficReclaimsWithoutDangling) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("keep"));
  std::weak_ptr<const ModelArtifact> watch;
  {
    ModelArtifactPtr evictee = model_a_->artifact("evictee");
    watch = evictee;
    registry.register_model(std::move(evictee));
  }
  InferenceServer server(registry, {.workers = 2, .queue_capacity = 32});

  // Mixed traffic against both ids while the evictee is registered.
  const Vector expected = model_a_->infer((*series_a_)[0]);
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<InferFuture> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(
          server.submit(i % 2 == 0 ? "keep" : "evictee", (*series_a_)[0]));
    }
    for (InferFuture& future : futures) {
      const InferResult& result = future.get();
      ASSERT_EQ(result.status, RequestStatus::kOk);
      expect_bit_identical(expected, result.logits, "pre-eviction");
    }
  }

  ASSERT_TRUE(registry.evict("evictee"));
  // Requests already admitted may still resolve; new ones get the typed
  // error. Keep "keep" traffic flowing while the evictee drains.
  bool expired = false;
  for (int attempt = 0; attempt < 200 && !expired; ++attempt) {
    std::vector<InferFuture> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(server.submit("keep", (*series_a_)[0]));
    }
    EXPECT_EQ(server.submit("evictee", (*series_a_)[0]).get().status,
              RequestStatus::kUnknownModel);
    for (InferFuture& future : futures) {
      ASSERT_EQ(future.get().status, RequestStatus::kOk);
    }
    expired = watch.expired();
  }
  EXPECT_TRUE(expired)
      << "evicted model's engines must be reclaimed under traffic, not "
         "linger until a same-name re-register";
  // Serving the surviving model is unaffected.
  const InferResult& after = server.submit("keep", (*series_a_)[0]).get();
  ASSERT_EQ(after.status, RequestStatus::kOk);
  expect_bit_identical(expected, after.logits, "post-eviction");
}

// A registry outlives its servers: evictions after a server was destroyed,
// and with no server alive, are safe (a server holds no registry
// subscription or callback).
TEST(ModelRegistry, EvictionListenersUnsubscribeCleanly) {
  ModelRegistry registry;
  const LoadedModel model = make_model(8, 2, 3, 61);
  registry.register_model(model.artifact("m"));
  {
    InferenceServer server(registry, {.workers = 1, .queue_capacity = 4});
    Rng rng(62);
    const Matrix series = random_series(10, 2, rng);
    EXPECT_EQ(server.submit("m", series).get().status, RequestStatus::kOk);
  }  // server destroyed: its subscription must be gone
  EXPECT_TRUE(registry.evict("m"));  // would crash if the listener dangled
  registry.register_model(model.artifact("m2"));
  EXPECT_TRUE(registry.evict("m2"));
}

// No further traffic is needed to free an evicted model: once its last
// request has resolved, the registry held the only reference, on the
// unbatched and on the micro-batched path, float and quantized alike. A
// re-registered model then serves bit-identical results.
TEST_F(ServerRouting, EvictedModelIsFreedWhenItsLastRequestResolves) {
  const Vector expected = model_a_->infer((*series_a_)[0]);
  for (std::size_t max_batch : {std::size_t{1}, std::size_t{8}}) {
    const std::string context = "max_batch=" + std::to_string(max_batch);
    ModelRegistry registry;
    std::weak_ptr<const ModelArtifact> watch;
    {
      ModelArtifactPtr artifact = artifact_with_twin(*model_a_, "m");
      watch = artifact;
      registry.register_model(std::move(artifact));
    }
    InferenceServer server(registry,
                           {.workers = 1,
                            .queue_capacity = 16,
                            .max_batch = max_batch,
                            .batch_window_us = max_batch > 1 ? 2000u : 0u});
    std::vector<InferFuture> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(server.submit(
          "m", (*series_a_)[0],
          serve::RequestOptions{.engine = i < 4 ? EngineVariant::kFloat
                                                : EngineVariant::kQuantized}));
    }
    for (const InferFuture& future : futures) {
      ASSERT_EQ(future.get().status, RequestStatus::kOk) << context;
    }
    ASSERT_TRUE(registry.evict("m"));
    EXPECT_TRUE(watch.expired())
        << context << ": the server still holds the evicted model";

    registry.register_model(model_a_->artifact("m"));
    const InferResult& revived = server.submit("m", (*series_a_)[0]).get();
    ASSERT_EQ(revived.status, RequestStatus::kOk) << context;
    expect_bit_identical(expected, revived.logits, context + " re-registered");
  }
}

// Re-registering a model WITHOUT its quantized twin fails quantized requests
// with the typed error while float requests keep serving; the swapped-out
// artifact is freed at once (nothing caches it), and a twin-carrying
// re-register serves quantized requests bit-identical again.
TEST_F(ServerRouting, HotSwapDroppingTheTwinFailsQuantizedTypedAndRecovers) {
  const serve::RequestOptions quant{.engine = EngineVariant::kQuantized};
  const Matrix& series = (*series_a_)[0];
  const QuantizedDfr quantized(*model_a_, QuantizedInferenceConfig{});
  QuantizedInferenceEngine direct = make_engine(quantized);
  const Vector expected(direct.infer(series).begin(),
                        direct.infer(series).end());
  ModelRegistry registry;
  std::weak_ptr<const ModelArtifact> watch;
  {
    ModelArtifactPtr with_twin = artifact_with_twin(*model_a_, "m");
    watch = with_twin;
    registry.register_model(std::move(with_twin));
  }
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 8});
  ASSERT_EQ(server.submit("m", series, quant).get().status, RequestStatus::kOk);

  registry.register_model(model_a_->artifact("m"));  // no twin
  EXPECT_TRUE(watch.expired()) << "the swapped-out artifact is still held";
  EXPECT_EQ(server.submit("m", series, quant).get().status,
            RequestStatus::kInvalidArgument);
  const InferResult& float_result = server.submit("m", series).get();
  ASSERT_EQ(float_result.status, RequestStatus::kOk);
  EXPECT_EQ(float_result.label, model_a_->classify(series));

  registry.register_model(artifact_with_twin(*model_a_, "m"));
  const InferResult& restored = server.submit("m", series, quant).get();
  ASSERT_EQ(restored.status, RequestStatus::kOk);
  expect_bit_identical(expected, restored.logits, "restored twin");
}

// ---- InferenceServer: hot swap under traffic -------------------------------

// Re-registering a model while clients hammer the queue: every reply must be
// bit-identical to one of the two versions' direct inference (no torn state),
// and replies for the other model must never cross-route.
TEST_F(ServerRouting, HotSwapMidTrafficNeverCrossRoutes) {
  const LoadedModel swapped_model = make_model(10, 2, 3, 99);  // same shape as a
  const Matrix& probe_a = (*series_a_)[0];
  const Matrix& probe_b = (*series_b_)[0];
  const Vector expect_a_v1 = model_a_->infer(probe_a);
  const Vector expect_a_v2 = swapped_model.infer(probe_a);
  const Vector expect_b = model_b_->infer(probe_b);
  // The two versions must actually disagree for this test to bite.
  ASSERT_NE(expect_a_v1, expect_a_v2);

  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  registry.register_model(model_b_->artifact("b"));
  InferenceServer server(registry, {.workers = 4, .queue_capacity = 64});

  constexpr int kRequestsPerClient = 150;
  std::atomic<int> mismatches{0};
  auto client = [&](const char* id, const Matrix& series,
                    const Vector* allowed1, const Vector* allowed2) {
    for (int i = 0; i < kRequestsPerClient; ++i) {
      InferFuture future = server.submit(id, series);
      const InferResult& result = future.get();
      if (result.status != RequestStatus::kOk) {
        ++mismatches;
        continue;
      }
      const bool matches1 =
          allowed1 != nullptr && result.logits == *allowed1;
      const bool matches2 =
          allowed2 != nullptr && result.logits == *allowed2;
      if (!matches1 && !matches2) ++mismatches;
    }
  };
  std::thread client_a(client, "a", std::cref(probe_a), &expect_a_v1,
                       &expect_a_v2);
  std::thread client_b(client, "b", std::cref(probe_b), &expect_b, nullptr);
  // Swap "a" back and forth while the clients run.
  for (int swap = 0; swap < 40; ++swap) {
    registry.register_model(swap % 2 == 0 ? swapped_model.artifact("a")
                                          : model_a_->artifact("a"));
    std::this_thread::yield();
  }
  client_a.join();
  client_b.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "hot swap produced a cross-routed or torn result";
  EXPECT_EQ(server.stats("a").completed + server.stats("b").completed,
            2u * kRequestsPerClient);
}

// ---- InferenceServer: backpressure and shutdown ----------------------------

TEST_F(ServerRouting, BackpressureRejectsWithTypedError) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 2});

  // Holding every future pins its slot, so regardless of worker speed only
  // `queue_capacity` submissions can be admitted.
  std::vector<InferFuture> futures;
  constexpr std::size_t kSubmissions = 24;
  for (std::size_t i = 0; i < kSubmissions; ++i) {
    futures.push_back(server.submit("a", (*series_a_)[0]));
  }
  std::size_t ok = 0, rejected = 0;
  for (const InferFuture& future : futures) {
    const InferResult& result = future.get();
    if (result.status == RequestStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(result.status, RequestStatus::kQueueFull);
      EXPECT_EQ(result.label, -1);
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(rejected, kSubmissions - 2);
  EXPECT_EQ(server.stats("a").rejected, kSubmissions - 2);

  // Releasing the futures frees the slots: admission works again.
  futures.clear();
  EXPECT_EQ(server.submit("a", (*series_a_)[0]).get().status,
            RequestStatus::kOk);
}

TEST_F(ServerRouting, ShutdownDrainsQueuedRequestsThenRejects) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  auto server = std::make_unique<InferenceServer>(
      registry, ServerConfig{.workers = 2, .queue_capacity = 64});

  std::vector<InferFuture> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server->submit("a", (*series_a_)[i % kSeriesPerModel]));
  }
  server->shutdown();  // must drain everything already admitted
  EXPECT_FALSE(server->accepting());
  for (InferFuture& future : futures) {
    EXPECT_TRUE(future.ready()) << "shutdown returned before draining";
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  const InferResult& late = server->submit("a", (*series_a_)[0]).get();
  EXPECT_EQ(late.status, RequestStatus::kShutdown);
  server->shutdown();  // idempotent
  futures.clear();
  server.reset();  // double-shutdown via destructor is fine
}

TEST_F(ServerRouting, AbandonedFuturesRecycleSlots) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 2});
  for (int i = 0; i < 50; ++i) {
    (void)server.submit("a", (*series_a_)[0]);  // future dropped immediately
  }
  // If abandoned slots leaked, capacity would stay exhausted forever; allow
  // the worker a moment to recycle the last in-flight ones.
  bool accepted = false;
  for (int attempt = 0; attempt < 1000 && !accepted; ++attempt) {
    InferFuture future = server.submit("a", (*series_a_)[0]);
    accepted = future.get().status == RequestStatus::kOk;
    if (!accepted) std::this_thread::yield();
  }
  EXPECT_TRUE(accepted) << "abandoned futures leaked their slots";
}

TEST_F(ServerRouting, AbandonedFutureNeverReadsADestroyedSeries) {
  // The documented safety contract: destroying the future and then the
  // series is always safe — a queued request cancels, an executing one
  // finishes inside the future's destructor. ASan (CI's sanitize job) turns
  // any violation into a hard failure here.
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 2, .queue_capacity = 8});
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    Matrix ephemeral = random_series(25, 2, rng);
    {
      InferFuture future = server.submit("a", ephemeral);
    }  // future dropped first...
    ephemeral = Matrix();  // ...then the series storage is released
  }
  SUCCEED();
}

// ---- InferenceServer: steady-state allocation guarantee --------------------

TEST_F(ServerRouting, SubmitPathAllocationFreeInSteadyState) {
  ModelRegistry registry;
  registry.register_model(artifact_with_twin(*model_a_, "a"));
  registry.register_model(artifact_with_twin(*model_b_, "b"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 4});
  const auto options = [](bool quantized) {
    return serve::RequestOptions{
        .engine = quantized ? EngineVariant::kQuantized : EngineVariant::kFloat};
  };

  // Warm-up: build every (worker, model, variant) engine, size the per-slot
  // logits/id storage, and create the per-model stats entries. Touch every
  // slot by holding capacity futures at least once.
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<InferFuture> wave;
    for (std::size_t i = 0; i < server.queue_capacity(); ++i) {
      const bool a = (rep + i) % 2 == 0;
      wave.push_back(server.submit(a ? "a" : "b",
                                   a ? (*series_a_)[0] : (*series_b_)[0],
                                   options(i % 2 != 0)));
    }
    for (InferFuture& future : wave) future.wait();
  }

  const std::size_t before = g_allocations.load();
  int sink = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const bool a = rep % 2 == 0;
    InferFuture future =
        server.submit(a ? "a" : "b", a ? (*series_a_)[0] : (*series_b_)[0],
                      options(rep % 4 >= 2));
    const InferResult& result = future.get();
    sink += result.label;
    sink += static_cast<int>(result.status);
  }
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "steady-state submit -> get must not allocate after warm-up";
  EXPECT_GE(sink, 0);  // keep the loop observable
}

// The micro-batched submit -> get path allocates nothing in steady state
// either, across two model shapes and both families on one worker: the
// worker's batched and single-series scratch grow to the larger model once
// and serve the smaller within that capacity. The batch window is long
// enough that every burst of same-key requests coalesces; a lone request
// waits it out and takes the single-series path.
TEST_F(ServerRouting, MicroBatchedSubmitPathAllocationFreeInSteadyState) {
  ModelRegistry registry;
  registry.register_model(artifact_with_twin(*model_a_, "a"));
  registry.register_model(artifact_with_twin(*model_b_, "b"));
  InferenceServer server(registry, {.workers = 1,
                                    .queue_capacity = 8,
                                    .max_batch = 8,
                                    .batch_window_us = 2000});
  struct Key {
    const char* id;
    const Matrix* series;
    serve::RequestOptions options;
  };
  const Key keys[] = {
      {"a", &(*series_a_)[0], {.engine = EngineVariant::kFloat}},
      {"b", &(*series_b_)[0], {.engine = EngineVariant::kFloat}},
      {"a", &(*series_a_)[1], {.engine = EngineVariant::kQuantized}},
      {"b", &(*series_b_)[1], {.engine = EngineVariant::kQuantized}},
  };
  std::vector<InferFuture> burst;
  burst.reserve(server.queue_capacity());
  std::size_t failed = 0;
  int sink = 0;
  const auto round = [&](std::size_t burst_size) {
    for (const Key& key : keys) {
      for (std::size_t i = 0; i < burst_size; ++i) {
        burst.push_back(server.submit(key.id, *key.series, key.options));
      }
      for (const InferFuture& future : burst) {
        const InferResult& result = future.get();
        failed += result.status != RequestStatus::kOk;
        sink += result.label;
      }
      burst.clear();  // keeps capacity
    }
  };

  // Warm-up: every (path, family) serves both shapes, the per-model stats
  // entries exist, and every slot has held a result.
  for (int rep = 0; rep < 4; ++rep) {
    round(1);
    round(server.queue_capacity());
    round(3);
  }

  const std::size_t before = g_allocations.load();
  for (int rep = 0; rep < 25; ++rep) {
    round(server.queue_capacity());
    round(3);
  }
  round(1);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "steady-state micro-batched submit -> get must not allocate";
  EXPECT_EQ(failed, 0u);
  EXPECT_GE(sink, 0);  // keep the loop observable
}

// ---- InferenceServer: micro-batching ---------------------------------------

// Micro-batch knobs are validated at construction with typed errors, like
// queue_capacity: silent clamping would hide a misconfigured deployment.
TEST(ServerConfigValidation, MicroBatchKnobsThrowTypedErrors) {
  ModelRegistry registry;
  // batching enabled without a window: a zero window would degenerate to
  // head-of-queue-only coalescing while claiming to batch.
  EXPECT_THROW(InferenceServer(registry, {.workers = 1,
                                          .queue_capacity = 4,
                                          .max_batch = 4}),
               CheckError);
  // zero lanes is meaningless (1 is the documented "disabled" setting).
  EXPECT_THROW(InferenceServer(registry, {.workers = 1,
                                          .queue_capacity = 4,
                                          .max_batch = 0,
                                          .batch_window_us = 50}),
               CheckError);
  // beyond the batched kernel family's lane bound.
  EXPECT_THROW(
      InferenceServer(registry, {.workers = 1,
                                 .queue_capacity = 4,
                                 .max_batch = simd::kBatchedMaxLanes + 1,
                                 .batch_window_us = 50}),
      CheckError);
  // valid: batching enabled with a window; and disabled with window unset.
  InferenceServer batched(registry, {.workers = 1,
                                     .queue_capacity = 4,
                                     .max_batch = simd::kBatchedMaxLanes,
                                     .batch_window_us = 50});
  InferenceServer unbatched(registry, {.workers = 1, .queue_capacity = 4});
  EXPECT_TRUE(batched.accepting());
  EXPECT_TRUE(unbatched.accepting());
}

// The batched contract end to end: with micro-batching enabled, every reply
// is bit-identical to the unbatched server's reply for the same request —
// for both models, float and quantized variants, at 1 and 8 workers. (Batched
// lanes run the same per-element kernel operations as the single-series
// engines, so coalescing must be invisible in the results.)
TEST_F(ServerRouting, MicroBatchedResultsBitIdenticalToUnbatched) {
  auto quantized = std::make_shared<const QuantizedDfr>(
      *model_a_, QuantizedInferenceConfig{});
  ModelRegistry registry;
  registry.register_model(with_quantized(model_a_->artifact("a"), quantized));
  registry.register_model(model_b_->artifact("b"));

  struct Request {
    const char* id;
    const Matrix* series;
    serve::RequestOptions options;
  };
  std::vector<Request> requests;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < kSeriesPerModel; ++i) {
      requests.push_back({"a", &(*series_a_)[i],
                          serve::RequestOptions{EngineVariant::kFloat}});
      requests.push_back({"a", &(*series_a_)[i],
                          serve::RequestOptions{EngineVariant::kQuantized}});
      requests.push_back({"b", &(*series_b_)[i],
                          serve::RequestOptions{EngineVariant::kFloat}});
    }
  }

  // Reference replies from an unbatched server (max_batch = 1 default).
  std::vector<Vector> expected_logits;
  std::vector<int> expected_labels;
  {
    InferenceServer reference(registry, {.workers = 1, .queue_capacity = 256});
    for (const Request& r : requests) {
      const InferResult& result =
          reference.submit(r.id, *r.series, r.options).get();
      ASSERT_EQ(result.status, RequestStatus::kOk);
      expected_logits.push_back(result.logits);
      expected_labels.push_back(result.label);
    }
  }

  for (std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    InferenceServer server(registry, {.workers = workers,
                                      .queue_capacity = 256,
                                      .max_batch = 8,
                                      .batch_window_us = 200});
    // One submission wave so queued neighbors actually coalesce.
    std::vector<InferFuture> futures;
    futures.reserve(requests.size());
    for (const Request& r : requests) {
      futures.push_back(server.submit(r.id, *r.series, r.options));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const InferResult& result = futures[i].get();
      ASSERT_EQ(result.status, RequestStatus::kOk)
          << "workers=" << workers << " request " << i;
      expect_bit_identical(expected_logits[i], result.logits,
                           "workers=" + std::to_string(workers) +
                               " request " + std::to_string(i));
      EXPECT_EQ(result.label, expected_labels[i]);
    }
  }
}

// A quantized request for a float-only artifact fails with the typed client
// error for EVERY coalesced lane — the whole batch maps to kInvalidArgument,
// not a crash or a partial batch.
TEST_F(ServerRouting, MicroBatchedMissingTwinFailsEveryLaneTyped) {
  ModelRegistry registry;
  registry.register_model(model_b_->artifact("b"));  // float-only
  InferenceServer server(registry, {.workers = 1,
                                    .queue_capacity = 32,
                                    .max_batch = 8,
                                    .batch_window_us = 200});
  std::vector<InferFuture> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(
        "b", (*series_b_)[0],
        serve::RequestOptions{.engine = EngineVariant::kQuantized}));
  }
  for (InferFuture& future : futures) {
    const InferResult& result = future.get();
    EXPECT_EQ(result.status, RequestStatus::kInvalidArgument);
    EXPECT_EQ(result.label, -1);
    EXPECT_TRUE(result.logits.empty());
  }
  // The server keeps serving float traffic on the same model afterwards.
  EXPECT_EQ(server.submit("b", (*series_b_)[0]).get().status,
            RequestStatus::kOk);
}

// Hot-swapping under batched traffic: the whole batch routes to the artifact
// resolved once at dequeue time, so every reply is bit-identical to one of
// the two versions — never torn within a request, never cross-routed.
TEST_F(ServerRouting, HotSwapMidBatchServesTheDequeueTimeArtifact) {
  const LoadedModel swapped_model = make_model(10, 2, 3, 99);  // same shape
  const Matrix& probe_a = (*series_a_)[0];
  const Matrix& probe_b = (*series_b_)[0];
  const Vector expect_a_v1 = model_a_->infer(probe_a);
  const Vector expect_a_v2 = swapped_model.infer(probe_a);
  const Vector expect_b = model_b_->infer(probe_b);
  ASSERT_NE(expect_a_v1, expect_a_v2);

  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  registry.register_model(model_b_->artifact("b"));
  InferenceServer server(registry, {.workers = 2,
                                    .queue_capacity = 64,
                                    .max_batch = 8,
                                    .batch_window_us = 100});

  constexpr int kWaves = 60;
  std::atomic<int> mismatches{0};
  auto client = [&](const char* id, const Matrix& series,
                    const Vector* allowed1, const Vector* allowed2) {
    for (int wave = 0; wave < kWaves; ++wave) {
      // Submit a burst so queued neighbors coalesce mid-swap.
      std::vector<InferFuture> futures;
      for (int i = 0; i < 6; ++i) futures.push_back(server.submit(id, series));
      for (InferFuture& future : futures) {
        const InferResult& result = future.get();
        if (result.status != RequestStatus::kOk) {
          ++mismatches;
          continue;
        }
        const bool matches1 = allowed1 != nullptr && result.logits == *allowed1;
        const bool matches2 = allowed2 != nullptr && result.logits == *allowed2;
        if (!matches1 && !matches2) ++mismatches;
      }
    }
  };
  std::thread client_a(client, "a", std::cref(probe_a), &expect_a_v1,
                       &expect_a_v2);
  std::thread client_b(client, "b", std::cref(probe_b), &expect_b, nullptr);
  for (int swap = 0; swap < 40; ++swap) {
    registry.register_model(swap % 2 == 0 ? swapped_model.artifact("a")
                                          : model_a_->artifact("a"));
    std::this_thread::yield();
  }
  client_a.join();
  client_b.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "a batched hot swap produced a torn or cross-routed result";
}

// Evicting under batched traffic: coalesced requests resolve the registry at
// dequeue time, so each reply is either a full kOk against the artifact (the
// batch dequeued before the evict) or the typed kUnknownModel — and the
// server keeps serving after a re-register.
TEST_F(ServerRouting, EvictionMidBatchFailsLanesTypedAndRecovers) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1,
                                    .queue_capacity = 64,
                                    .max_batch = 8,
                                    .batch_window_us = 200});
  const Vector expected = model_a_->infer((*series_a_)[0]);

  // Queue a burst, then evict while (some of) it is still pending.
  std::vector<InferFuture> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.submit("a", (*series_a_)[0]));
  }
  ASSERT_TRUE(registry.evict("a"));
  std::size_t ok = 0, unknown = 0;
  for (InferFuture& future : futures) {
    const InferResult& result = future.get();
    if (result.status == RequestStatus::kOk) {
      expect_bit_identical(expected, result.logits, "pre-eviction batch lane");
      ++ok;
    } else {
      ASSERT_EQ(result.status, RequestStatus::kUnknownModel);
      ++unknown;
    }
  }
  EXPECT_EQ(ok + unknown, 32u);
  EXPECT_EQ(server.submit("a", (*series_a_)[0]).get().status,
            RequestStatus::kUnknownModel);

  registry.register_model(model_a_->artifact("a"));
  const InferResult& revived = server.submit("a", (*series_a_)[0]).get();
  ASSERT_EQ(revived.status, RequestStatus::kOk);
  expect_bit_identical(expected, revived.logits, "post-re-register");
}

// Abandoned futures under batching recycle their slots: dropped-while-queued
// requests are freed during batch collection (never inferred), and a future
// dropped while its lane is in flight blocks until the lane completes — so
// capacity always comes back and no lane reads a dead series.
TEST_F(ServerRouting, AbandonedFuturesRecycleSlotsUnderBatching) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1,
                                    .queue_capacity = 4,
                                    .max_batch = 4,
                                    .batch_window_us = 100});
  for (int i = 0; i < 50; ++i) {
    (void)server.submit("a", (*series_a_)[0]);  // dropped immediately
  }
  bool accepted = false;
  for (int attempt = 0; attempt < 1000 && !accepted; ++attempt) {
    InferFuture future = server.submit("a", (*series_a_)[0]);
    accepted = future.get().status == RequestStatus::kOk;
    if (!accepted) std::this_thread::yield();
  }
  EXPECT_TRUE(accepted) << "abandoned futures leaked slots under batching";

  // The destroy-future-then-series pattern stays safe with lanes in flight
  // (ASan in CI turns any violation into a hard failure).
  Rng rng(78);
  for (int i = 0; i < 200; ++i) {
    Matrix ephemeral = random_series(25, 2, rng);
    {
      InferFuture future = server.submit("a", ephemeral);
    }
    ephemeral = Matrix();
  }
  SUCCEED();
}

// Shutdown with batching enabled drains every admitted request: batch
// windows cut short, claimed lanes complete, nothing hangs or is dropped.
TEST_F(ServerRouting, ShutdownDrainsBatchedRequests) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  auto server = std::make_unique<InferenceServer>(
      registry, ServerConfig{.workers = 2,
                             .queue_capacity = 64,
                             .max_batch = 8,
                             .batch_window_us = 500});
  std::vector<InferFuture> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server->submit("a", (*series_a_)[i % kSeriesPerModel]));
  }
  server->shutdown();
  for (InferFuture& future : futures) {
    EXPECT_TRUE(future.ready()) << "shutdown returned before draining";
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  EXPECT_EQ(server->submit("a", (*series_a_)[0]).get().status,
            RequestStatus::kShutdown);
}

// ---- SLO-aware admission (deadline + priority) ------------------------------

// A request whose deadline expired while queued resolves typed
// kDeadlineExceeded without executing — no logits, no label, counted as
// shed (never as an error) — at 1 and 8 workers. A first wave without
// deadlines keeps every worker busy so the deadline wave is guaranteed to
// out-age its 1 us budget while queued.
TEST_F(ServerRouting, ExpiredDeadlineShedsTypedWithoutExecuting) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    ModelRegistry registry;
    registry.register_model(model_a_->artifact("a"));
    InferenceServer server(registry,
                           {.workers = workers, .queue_capacity = 128});
    serve::RequestOptions late;
    late.deadline_us = 1;
    std::vector<InferFuture> normal, doomed;
    for (int i = 0; i < 24; ++i) {
      normal.push_back(server.submit("a", (*series_a_)[i % kSeriesPerModel]));
    }
    for (int i = 0; i < 16; ++i) {
      doomed.push_back(
          server.submit("a", (*series_a_)[i % kSeriesPerModel], late));
    }
    for (InferFuture& future : normal) {
      EXPECT_EQ(future.get().status, RequestStatus::kOk)
          << "workers=" << workers;
    }
    for (InferFuture& future : doomed) {
      const InferResult& result = future.get();
      EXPECT_EQ(result.status, RequestStatus::kDeadlineExceeded)
          << "workers=" << workers;
      EXPECT_EQ(result.label, -1);
      EXPECT_TRUE(result.logits.empty());
    }
    const serve::ModelServingStats stats = server.stats("a");
    EXPECT_EQ(stats.completed, normal.size()) << "workers=" << workers;
    EXPECT_EQ(stats.shed, doomed.size()) << "workers=" << workers;
    EXPECT_EQ(stats.errors, 0u) << "workers=" << workers;
  }
}

// Same guarantee through the micro-batching dequeue path: expired lanes are
// shed before the batch touches an engine.
TEST_F(ServerRouting, ExpiredDeadlineShedsUnderMicroBatching) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1,
                                    .queue_capacity = 64,
                                    .max_batch = 8,
                                    .batch_window_us = 200});
  serve::RequestOptions late;
  late.deadline_us = 1;
  std::vector<InferFuture> normal, doomed;
  for (int i = 0; i < 8; ++i) {
    normal.push_back(server.submit("a", (*series_a_)[i % kSeriesPerModel]));
  }
  for (int i = 0; i < 16; ++i) {
    doomed.push_back(
        server.submit("a", (*series_a_)[i % kSeriesPerModel], late));
  }
  for (InferFuture& future : normal) {
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  for (InferFuture& future : doomed) {
    EXPECT_EQ(future.get().status, RequestStatus::kDeadlineExceeded);
  }
  EXPECT_EQ(server.stats("a").shed, doomed.size());
}

// A generous deadline never sheds: the request completes normally and the
// deadline leaves no trace in the stats.
TEST_F(ServerRouting, GenerousDeadlineCompletesNormally) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 8});
  serve::RequestOptions options;
  options.deadline_us = 60'000'000;  // one minute
  options.priority = 3;
  const InferResult& result =
      server.submit("a", (*series_a_)[0], options).get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(server.stats("a").shed, 0u);
  EXPECT_EQ(server.stats("a").completed, 1u);
}

// Higher-priority requests dequeue first. One worker is plugged with a
// running request; of the requests queued behind it, the high-priority
// straggler (submitted LAST) must complete before every low-priority one —
// observed through per-request latency: completions are serialized on one
// worker, so dequeue order is latency order for requests submitted together.
TEST_F(ServerRouting, HigherPriorityDequeuesFirst) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 32});
  // Long series = long service time, so queue-order effects dominate the
  // microseconds of submission skew.
  Rng rng(91);
  const Matrix long_series = random_series(400, 2, rng);
  InferFuture plug = server.submit("a", long_series);
  std::vector<InferFuture> low;
  for (int i = 0; i < 4; ++i) {
    low.push_back(server.submit("a", long_series));  // priority 0 (default)
  }
  serve::RequestOptions urgent;
  urgent.priority = 5;
  InferFuture high = server.submit("a", long_series, urgent);
  ASSERT_EQ(plug.get().status, RequestStatus::kOk);
  ASSERT_EQ(high.get().status, RequestStatus::kOk);
  const double high_latency = high.get().latency_us;
  for (InferFuture& future : low) {
    ASSERT_EQ(future.get().status, RequestStatus::kOk);
    EXPECT_GT(future.get().latency_us, high_latency)
        << "a default-priority request dequeued before the priority-5 one";
  }
}

// Stats slots dropped by the max_tracked_models cap are surfaced through
// dropped_stats() instead of vanishing silently.
TEST_F(ServerRouting, DroppedStatsCounterSurfacesCapExhaustion) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1,
                                    .queue_capacity = 4,
                                    .max_tracked_models = 2});
  EXPECT_EQ(server.submit("a", (*series_a_)[0]).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(server.dropped_stats(), 0u);
  // Two more registered models: the second one exceeds the cap, so each of
  // its outcomes increments the dropped counter.
  registry.register_model(model_a_->artifact("b"));
  registry.register_model(model_a_->artifact("c"));
  EXPECT_EQ(server.submit("b", (*series_a_)[0]).get().status,
            RequestStatus::kOk);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server.submit("c", (*series_a_)[0]).get().status,
              RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats().size(), 2u);
  EXPECT_EQ(server.dropped_stats(), 3u);
  // Unregistered ids never count as dropped slots — they are not tracked by
  // design, not lost to the cap.
  EXPECT_EQ(server.submit("bogus", (*series_a_)[0]).get().status,
            RequestStatus::kUnknownModel);
  EXPECT_EQ(server.dropped_stats(), 3u);
}

// export_stats emits one scrapeable `name{labels} value` line per counter,
// including the shed outcome and the dropped-stats total.
TEST_F(ServerRouting, ExportStatsScrapeableFormat) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 16});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server.submit("a", (*series_a_)[0]).get().status,
              RequestStatus::kOk);
  }
  serve::RequestOptions late;
  late.deadline_us = 1;
  InferFuture plug = server.submit("a", (*series_a_)[0]);
  InferFuture doomed = server.submit("a", (*series_a_)[1], late);
  (void)plug.get();
  EXPECT_EQ(doomed.get().status, RequestStatus::kDeadlineExceeded);

  std::ostringstream os;
  server.export_stats(os);
  const std::string text = os.str();
  EXPECT_NE(
      text.find("dfr_requests_total{model=\"a\",outcome=\"completed\"} 4"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("dfr_requests_total{model=\"a\",outcome=\"shed\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dfr_request_latency_us{model=\"a\",quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dfr_stats_dropped_total 0"), std::string::npos) << text;
}

// ---- queue-position-aware shedding -----------------------------------------

// Submit-side predictive shed: once the service-time EWMA is trained and a
// backlog is queued, a request whose deadline cannot possibly be met is
// rejected typed AT submit() — the returned future is ready immediately,
// before any worker could have touched it (the workers are busy executing,
// so nothing else can resolve it in that window). The drop counts into the
// same per-model `shed` stat as the other shed points.
TEST_F(ServerRouting, DoomedRequestShedsAtSubmit) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 64});
  // Train the EWMA: completions are what teach the server its service time.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.submit("a", (*series_a_)[i % kSeriesPerModel])
                  .get()
                  .status,
              RequestStatus::kOk);
  }
  // Pile up a deadline-free backlog the prediction must see ahead of the
  // doomed request.
  std::vector<InferFuture> backlog;
  for (int i = 0; i < 32; ++i) {
    backlog.push_back(server.submit("a", (*series_a_)[i % kSeriesPerModel]));
  }
  serve::RequestOptions impossible;
  impossible.deadline_us = 1;  // 32 queued inferences will never fit in 1 us
  InferFuture doomed = server.submit("a", (*series_a_)[0], impossible);
  EXPECT_TRUE(doomed.ready()) << "submit-shed must resolve synchronously";
  const InferResult& result = doomed.get();
  EXPECT_EQ(result.status, RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(result.label, -1);
  EXPECT_TRUE(result.logits.empty());
  for (InferFuture& future : backlog) {
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats("a").shed, 1u);
  EXPECT_EQ(server.stats("a").completed, 4u + backlog.size());
}

// The predictor is conservative by construction: a COLD server (no
// completions, EWMA untrained) admits even a hopeless deadline instead of
// guessing; the request is then claimed and shed by the queue sweep without
// ever executing. Admission is read off the resolved result, never off
// ready(), which races the sweep: a shed at submit reads latency_us == 0,
// and a queue shed fires only once the 1 us budget has elapsed
// (InferResult::latency_us). The server stays cold only until the plug
// completes, which a descheduled test thread can outwait; such an attempt
// (ewma_service_us() already nonzero after the doomed submit) proves
// nothing and is retried on a fresh server.
TEST_F(ServerRouting, ColdServerNeverSubmitSheds) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  Rng rng(91);
  const Matrix plug = random_series(400, 2, rng);
  serve::RequestOptions impossible;
  impossible.deadline_us = 1;
  for (int attempt = 0; attempt < 100; ++attempt) {
    InferenceServer server(registry, {.workers = 1, .queue_capacity = 64});
    std::vector<InferFuture> backlog;
    backlog.push_back(server.submit("a", plug));
    for (int i = 0; i < 8; ++i) {
      backlog.push_back(server.submit("a", (*series_a_)[i % kSeriesPerModel]));
    }
    InferFuture doomed = server.submit("a", (*series_a_)[0], impossible);
    const bool cold = server.ewma_service_us() == 0.0;
    EXPECT_EQ(doomed.get().status, RequestStatus::kDeadlineExceeded);
    for (InferFuture& future : backlog) {
      EXPECT_EQ(future.get().status, RequestStatus::kOk);
    }
    if (cold) {
      EXPECT_GE(doomed.get().latency_us, 1.0) << "cold EWMA must not predict";
      return;
    }
  }
  FAIL() << "the server never stayed cold through the doomed submit";
}

// shed_on_submit = false disables the predictor outright: the same trained
// EWMA + backlog + hopeless deadline is admitted (its result reads
// latency_us >= 1, see ColdServerNeverSubmitSheds) and still resolves typed
// through the queue sweep / dequeue shed — an admitted request always
// resolves.
TEST_F(ServerRouting, SubmitShedCanBeDisabled) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(
      registry,
      {.workers = 1, .queue_capacity = 64, .shed_on_submit = false});
  for (int i = 0; i < 4; ++i) {
    (void)server.submit("a", (*series_a_)[0]).get();
  }
  // Long plug: the worker stays busy while the backlog below queues.
  Rng rng(92);
  const Matrix plug = random_series(400, 2, rng);
  std::vector<InferFuture> backlog;
  backlog.push_back(server.submit("a", plug));
  for (int i = 0; i < 32; ++i) {
    backlog.push_back(server.submit("a", (*series_a_)[i % kSeriesPerModel]));
  }
  serve::RequestOptions impossible;
  impossible.deadline_us = 1;
  InferFuture doomed = server.submit("a", (*series_a_)[0], impossible);
  EXPECT_EQ(doomed.get().status, RequestStatus::kDeadlineExceeded);
  EXPECT_GE(doomed.get().latency_us, 1.0) << "predictor must be off";
  for (InferFuture& future : backlog) {
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
}

// While-queued shedding: an expired request is dropped by the worker's
// queue sweep long before its own turn at the dequeue. The doomed request
// carries the LOWEST priority, so dequeue order would only reach it after
// the entire high-priority backlog — yet it resolves shed while most of
// that backlog is still queued.
TEST_F(ServerRouting, QueueSweepShedsExpiredRequestsBeforeTheirTurn) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(
      registry,
      {.workers = 1, .queue_capacity = 64, .shed_on_submit = false});
  serve::RequestOptions high;
  high.priority = 10;
  std::vector<InferFuture> backlog;
  for (int i = 0; i < 24; ++i) {
    backlog.push_back(
        server.submit("a", (*series_a_)[i % kSeriesPerModel], high));
  }
  serve::RequestOptions doomed_options;
  doomed_options.priority = -10;  // dequeue would reach it dead last
  doomed_options.deadline_us = 1;
  InferFuture doomed = server.submit("a", (*series_a_)[0], doomed_options);

  // After the 8th backlog completion, at least one sweep has run (a worker
  // sweeps every time it comes back for the next request) — the doomed
  // request must already be shed even though 16 higher-priority requests
  // are still ahead of it in dequeue order.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(backlog[static_cast<std::size_t>(i)].get().status,
              RequestStatus::kOk);
  }
  EXPECT_TRUE(doomed.ready())
      << "expired request waited for its dequeue turn instead of sweeping";
  EXPECT_EQ(doomed.get().status, RequestStatus::kDeadlineExceeded);
  for (InferFuture& future : backlog) {
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats("a").shed, 1u);
}

// Deadline-free and generously-budgeted traffic is never predicted against,
// no matter how trained the EWMA or how deep the backlog.
TEST_F(ServerRouting, PredictorNeverTouchesHealthyTraffic) {
  ModelRegistry registry;
  registry.register_model(model_a_->artifact("a"));
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 128});
  for (int i = 0; i < 4; ++i) {
    (void)server.submit("a", (*series_a_)[0]).get();
  }
  serve::RequestOptions generous;
  generous.deadline_us = 60'000'000;
  std::vector<InferFuture> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(
        i % 2 == 0
            ? server.submit("a", (*series_a_)[i % kSeriesPerModel])
            : server.submit("a", (*series_a_)[i % kSeriesPerModel], generous));
  }
  for (InferFuture& future : futures) {
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats("a").shed, 0u);
}

}  // namespace
}  // namespace dfr
