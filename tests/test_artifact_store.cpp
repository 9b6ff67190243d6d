// Tests for the zero-copy artifact store (serve/artifact_store.hpp): mmap
// loading is bit-identical to the copying loader and makes no weight-sized
// allocation (operator-new instrumented), v1 files fall back to the copying
// loader behind the same API, truncated / corrupt / misaligned v2 files are
// rejected with typed CheckError (never a crash, never a partial map), the
// LRU layer holds max_resident_bytes under 1k-model churn, and eviction
// under live server traffic refaults transparently.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "dfr/dfrm_format.hpp"
#include "dfr/model_io.hpp"
#include "dfr/trainer.hpp"
#include "serve/artifact_store.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

// ---- allocation instrumentation -------------------------------------------
// Counting operator new/delete like test_serve.cpp, plus the LARGEST single
// allocation seen — the zero-copy guarantee is "no weight-sized allocation
// during an mmap load", which is a max-size property, not a count property.

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_max_alloc{0};

void note_alloc(std::size_t size) {
  ++g_allocations;
  std::size_t seen = g_max_alloc.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_max_alloc.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed)) {
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfr {
namespace {

using serve::ArtifactStore;
using serve::ArtifactStoreConfig;
using serve::InferenceServer;
using serve::InferResult;
using serve::ModelRegistry;
using serve::RequestStatus;

std::string temp_path(const std::string& name) {
  static const std::string suffix =
      "." + std::to_string(::getpid()) + ".dfrm";
  return (std::filesystem::temp_directory_path() / (name + suffix)).string();
}

/// Deployment-shaped model with random deterministic weights (store behavior
/// depends on shapes and bytes, never on training).
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

void save_as(const LoadedModel& model, const std::string& path,
             std::uint32_t version) {
  TrainResult trained;
  trained.params = model.params;
  trained.mask = model.mask;
  trained.nonlinearity = model.nonlinearity;
  trained.readout = model.readout;
  trained.chosen_beta = model.chosen_beta;
  save_model(trained, path, version);
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_artifacts_bit_identical(const ModelArtifact& a,
                                    const ModelArtifact& b) {
  EXPECT_DOUBLE_EQ(a.params.a, b.params.a);
  EXPECT_DOUBLE_EQ(a.params.b, b.params.b);
  EXPECT_DOUBLE_EQ(a.chosen_beta, b.chosen_beta);
  EXPECT_EQ(a.nonlinearity.kind(), b.nonlinearity.kind());
  EXPECT_DOUBLE_EQ(a.nonlinearity.mg_exponent(), b.nonlinearity.mg_exponent());
  EXPECT_TRUE(a.mask.weights() == b.mask.weights());
  EXPECT_TRUE(a.readout.weights() == b.readout.weights());
  EXPECT_EQ(a.readout.bias(), b.readout.bias());
}

class ArtifactStoreTest : public ::testing::Test {
 protected:
  // 256 nodes makes the smallest weight section (the mask: 256 x 2 doubles
  // = 4 KiB) comfortably larger than any bookkeeping allocation, so the
  // zero-copy max-allocation assertion has real teeth.
  static constexpr std::size_t kNodes = 256;

  static void SetUpTestSuite() {
    model_ = new LoadedModel(make_model(kNodes, 2, 3, 21));
    path_v2_ = temp_path("dfr_store_v2");
    path_v1_ = temp_path("dfr_store_v1");
    save_as(*model_, path_v2_, 2);
    save_as(*model_, path_v1_, 1);
  }
  static void TearDownTestSuite() {
    std::remove(path_v2_.c_str());
    std::remove(path_v1_.c_str());
    delete model_;
    model_ = nullptr;
  }

  static LoadedModel* model_;
  static std::string path_v2_;
  static std::string path_v1_;
};

LoadedModel* ArtifactStoreTest::model_ = nullptr;
std::string ArtifactStoreTest::path_v2_;
std::string ArtifactStoreTest::path_v1_;

// ---- zero-copy loading -----------------------------------------------------

TEST_F(ArtifactStoreTest, MmapArtifactBitIdenticalToCopyingLoader) {
  const ModelArtifactPtr mapped = serve::load_artifact_mmap(path_v2_, "m");
  const ModelArtifactPtr copied = load_artifact(path_v2_, "m");
  ASSERT_NE(mapped, nullptr);
  ASSERT_NE(copied, nullptr);
  EXPECT_NE(mapped->backing, nullptr);
  EXPECT_EQ(copied->backing, nullptr);
  expect_artifacts_bit_identical(*mapped, *copied);

  // And against the v1 copying loader of the same model: the format version
  // must not change a single weight bit.
  const ModelArtifactPtr v1 = load_artifact(path_v1_, "m");
  expect_artifacts_bit_identical(*mapped, *v1);
}

TEST_F(ArtifactStoreTest, MmapLoadMakesNoWeightSizedAllocation) {
  const std::size_t mask_bytes =
      model_->mask.weights().size() * sizeof(double);
  ASSERT_GE(mask_bytes, 4096u);
  g_max_alloc.store(0);
  const ModelArtifactPtr mapped = serve::load_artifact_mmap(path_v2_, "m");
  const std::size_t biggest = g_max_alloc.load();
  ASSERT_NE(mapped, nullptr);
  // Every allocation during the load (artifact struct, name string, Ny-entry
  // bias) must be smaller than the smallest weight payload — the weights
  // themselves are borrowed views over the mapping, never copied.
  EXPECT_LT(biggest, mask_bytes);

  // The copying loader, by contrast, must allocate at least the readout.
  g_max_alloc.store(0);
  const ModelArtifactPtr copied = load_artifact(path_v2_, "m");
  EXPECT_GE(g_max_alloc.load(), mask_bytes);
}

TEST_F(ArtifactStoreTest, V1FileFallsBackToCopyingLoader) {
  const ModelArtifactPtr artifact = serve::load_artifact_mmap(path_v1_, "m");
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(artifact->backing, nullptr);  // owned weights, nothing mapped
  expect_artifacts_bit_identical(*artifact, *load_artifact(path_v1_, "m"));
}

TEST_F(ArtifactStoreTest, MappedWeightsOutliveRegistryEviction) {
  ModelRegistry registry;
  ModelArtifactPtr artifact = serve::load_artifact_mmap(path_v2_, "m");
  registry.register_model(artifact);
  const double first_weight = artifact->mask.weights()(0, 0);
  registry.evict("m");
  // The mapping is refcounted through the artifact: pages stay mapped (and
  // readable) until the last reference drops, eviction or not.
  EXPECT_EQ(artifact->mask.weights()(0, 0), first_weight);
  EXPECT_TRUE(artifact->readout.weights().all_finite());
}

// ---- malformed v2 files ----------------------------------------------------

TEST_F(ArtifactStoreTest, TruncatedV2ThrowsTypedAtEveryGranularity) {
  const std::vector<char> bytes = read_bytes(path_v2_);
  const std::string mutated = temp_path("dfr_store_truncated");
  // Inside the header, between header and payload, inside each section, and
  // one byte short: all typed CheckError, nothing mapped, no crash.
  for (const double fraction : {0.05, 0.2, 0.5, 0.8, 0.99}) {
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * fraction);
    write_bytes(mutated,
                std::vector<char>(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep)));
    EXPECT_THROW((void)serve::load_artifact_mmap(mutated), CheckError)
        << "prefix " << keep;
  }
  std::remove(mutated.c_str());
}

TEST_F(ArtifactStoreTest, TrailingGarbageThrowsSizeMismatch) {
  std::vector<char> bytes = read_bytes(path_v2_);
  bytes.push_back('\0');  // file no longer matches header.file_size
  const std::string mutated = temp_path("dfr_store_trailing");
  write_bytes(mutated, bytes);
  EXPECT_THROW((void)serve::load_artifact_mmap(mutated), CheckError);
  std::remove(mutated.c_str());
}

TEST_F(ArtifactStoreTest, MisalignedSectionOffsetThrows) {
  std::vector<char> bytes = read_bytes(path_v2_);
  dfrm::V2Header hdr{};
  std::memcpy(&hdr, bytes.data(), sizeof(hdr));
  hdr.mask_offset += 8;  // still in bounds, no longer 64-byte aligned
  std::memcpy(bytes.data(), &hdr, sizeof(hdr));
  const std::string mutated = temp_path("dfr_store_misaligned");
  write_bytes(mutated, bytes);
  EXPECT_THROW((void)serve::load_artifact_mmap(mutated), CheckError);
  std::remove(mutated.c_str());
}

TEST_F(ArtifactStoreTest, OutOfBoundsSectionThrows) {
  std::vector<char> bytes = read_bytes(path_v2_);
  dfrm::V2Header hdr{};
  std::memcpy(&hdr, bytes.data(), sizeof(hdr));
  hdr.readout_offset = dfrm::v2_align_up(hdr.file_size + (1u << 20));
  std::memcpy(bytes.data(), &hdr, sizeof(hdr));
  const std::string mutated = temp_path("dfr_store_oob");
  write_bytes(mutated, bytes);
  EXPECT_THROW((void)serve::load_artifact_mmap(mutated), CheckError);
  std::remove(mutated.c_str());
}

TEST_F(ArtifactStoreTest, ZeroDimensionOrBogusKindThrows) {
  const std::vector<char> original = read_bytes(path_v2_);
  const std::string mutated = temp_path("dfr_store_badheader");
  {
    std::vector<char> bytes = original;
    dfrm::V2Header hdr{};
    std::memcpy(&hdr, bytes.data(), sizeof(hdr));
    hdr.mask_rows = 0;
    std::memcpy(bytes.data(), &hdr, sizeof(hdr));
    write_bytes(mutated, bytes);
    EXPECT_THROW((void)serve::load_artifact_mmap(mutated), CheckError);
  }
  {
    std::vector<char> bytes = original;
    dfrm::V2Header hdr{};
    std::memcpy(&hdr, bytes.data(), sizeof(hdr));
    hdr.nonlin_kind = 99;
    std::memcpy(bytes.data(), &hdr, sizeof(hdr));
    write_bytes(mutated, bytes);
    EXPECT_THROW((void)serve::load_artifact_mmap(mutated), CheckError);
  }
  std::remove(mutated.c_str());
}

TEST(ArtifactStoreErrors, MissingOrEmptyFileThrows) {
  EXPECT_THROW((void)serve::load_artifact_mmap(
                   temp_path("dfr_store_does_not_exist")),
               CheckError);
  const std::string path = temp_path("dfr_store_empty");
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_THROW((void)serve::load_artifact_mmap(path), CheckError);
  std::remove(path.c_str());
}

// ---- store / LRU -----------------------------------------------------------

TEST_F(ArtifactStoreTest, FaultsRegisterThenHitsServeFromRegistry) {
  ModelRegistry registry;
  ArtifactStore store(registry);
  store.add("a", path_v2_);
  EXPECT_EQ(store.get("untracked"), nullptr);

  const ModelArtifactPtr first = store.get("a");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(registry.get("a"), first);  // fault-in registered it
  EXPECT_EQ(store.get("a"), first);     // hit: same artifact, no reload

  const auto counters = store.counters();
  EXPECT_EQ(counters.faults, 1u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.resident_models, 1u);
  EXPECT_GT(counters.resident_bytes, 0u);
  EXPECT_GT(store.load_latency_us().count, 0u);
}

TEST_F(ArtifactStoreTest, FailedLoadThrowsAndIdStaysTracked) {
  ModelRegistry registry;
  ArtifactStore store(registry);
  const std::string bad = temp_path("dfr_store_failedload");
  write_bytes(bad, std::vector<char>(16, 'x'));
  store.add("a", bad);
  EXPECT_THROW((void)store.get("a"), CheckError);
  EXPECT_EQ(store.counters().resident_models, 0u);
  // Fixing the path heals the id on the next get.
  store.add("a", path_v2_);
  EXPECT_NE(store.get("a"), nullptr);
  std::remove(bad.c_str());
}

TEST_F(ArtifactStoreTest, LruCapHoldsUnderThousandModelChurn) {
  // 8 distinct files cycled over 1024 tracked ids, cap sized for ~3
  // artifacts: every get must leave resident_bytes at or under the cap, and
  // every id must still be servable (transparent refault after eviction).
  std::vector<std::string> files;
  for (int f = 0; f < 8; ++f) {
    const LoadedModel m = make_model(16, 2, 3, 100 + static_cast<unsigned>(f));
    files.push_back(temp_path("dfr_store_churn" + std::to_string(f)));
    save_as(m, files.back(), 2);
  }
  const std::size_t file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(files[0]));
  const std::size_t cap = 3 * file_bytes + file_bytes / 2;

  ModelRegistry registry;
  ArtifactStore store(registry, ArtifactStoreConfig{.max_resident_bytes = cap});
  constexpr std::size_t kIds = 1024;
  for (std::size_t m = 0; m < kIds; ++m) {
    store.add("m" + std::to_string(m), files[m % files.size()]);
  }
  Rng rng(7);
  for (std::size_t step = 0; step < 2048; ++step) {
    const std::size_t id = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(kIds)));
    ASSERT_NE(store.get("m" + std::to_string(std::min(id, kIds - 1))), nullptr);
    ASSERT_LE(store.resident_bytes(), cap) << "step " << step;
  }
  const auto counters = store.counters();
  EXPECT_EQ(counters.tracked_models, kIds);
  EXPECT_LE(counters.resident_models, 3u);
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_GT(counters.hits + counters.faults, 0u);
  for (const std::string& path : files) std::remove(path.c_str());
}

TEST_F(ArtifactStoreTest, SingleArtifactLargerThanCapStillLoads) {
  ModelRegistry registry;
  ArtifactStore store(registry, ArtifactStoreConfig{.max_resident_bytes = 64});
  store.add("a", path_v2_);
  const ModelArtifactPtr artifact = store.get("a");  // over cap on its own
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(store.counters().resident_models, 1u);
}

TEST_F(ArtifactStoreTest, ExternallyEvictedIdHealsAndRefaults) {
  ModelRegistry registry;
  ArtifactStore store(registry);
  store.add("a", path_v2_);
  ASSERT_NE(store.get("a"), nullptr);
  registry.evict("a");  // someone else drove the registry
  const ModelArtifactPtr again = store.get("a");
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(registry.get("a"), again);
  EXPECT_EQ(store.counters().faults, 2u);  // healed as a re-fault, not a hit
}

TEST_F(ArtifactStoreTest, EraseEvictsAndStopsTracking) {
  ModelRegistry registry;
  ArtifactStore store(registry);
  store.add("a", path_v2_);
  ASSERT_NE(store.get("a"), nullptr);
  EXPECT_TRUE(store.erase("a"));
  EXPECT_EQ(registry.get("a"), nullptr);
  EXPECT_EQ(store.get("a"), nullptr);
  EXPECT_FALSE(store.erase("a"));
}

TEST_F(ArtifactStoreTest, V1FallbackAccountsOwnedWeights) {
  ModelRegistry registry;
  ArtifactStore store(registry);
  store.add("a", path_v1_);
  const ModelArtifactPtr artifact = store.get("a");
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(artifact->backing, nullptr);
  const std::size_t weight_bytes =
      (model_->mask.weights().size() + model_->readout.weights().size() +
       model_->readout.bias().size()) *
      sizeof(double);
  EXPECT_EQ(store.resident_bytes(), weight_bytes);
}

TEST_F(ArtifactStoreTest, ExportStatsScrapeableFormat) {
  ModelRegistry registry;
  ArtifactStore store(registry);
  store.add("a", path_v2_);
  ASSERT_NE(store.get("a"), nullptr);
  ASSERT_NE(store.get("a"), nullptr);
  std::ostringstream os;
  store.export_stats(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("dfr_store_resident_bytes "), std::string::npos);
  EXPECT_NE(text.find("dfr_store_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("dfr_store_faults_total 1"), std::string::npos);
  EXPECT_NE(text.find("dfr_store_load_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dfr_model_resident_bytes{model=\"a\"}"),
            std::string::npos);
}

// ---- eviction under traffic ------------------------------------------------

TEST_F(ArtifactStoreTest, EvictionUnderTrafficRefaultsTransparently) {
  // Two models ping-pong under a cap that fits only one: every switch
  // evicts the other through the registry, and the next get refaults it.
  // Every request must complete kOk.
  const std::string path_b = temp_path("dfr_store_pingpong_b");
  save_as(make_model(kNodes, 2, 3, 22), path_b, 2);
  const std::size_t file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(path_v2_));

  ModelRegistry registry;
  ArtifactStore store(
      registry,
      ArtifactStoreConfig{.max_resident_bytes = file_bytes + file_bytes / 2});
  store.add("a", path_v2_);
  store.add("b", path_b);
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 8});

  Rng rng(23);
  Matrix series(20, 2);
  for (std::size_t k = 0; k < series.rows(); ++k) {
    for (std::size_t v = 0; v < series.cols(); ++v) {
      series(k, v) = rng.uniform(-1.0, 1.0);
    }
  }
  for (int i = 0; i < 24; ++i) {
    const char* id = (i % 2 != 0) ? "b" : "a";
    ASSERT_NE(store.get(id), nullptr);  // admission fault-in, evicts the other
    const InferResult& result = server.submit(id, series).get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << "request " << i;
    ASSERT_FALSE(result.logits.empty());
  }
  EXPECT_GE(store.counters().evictions, 20u);
  EXPECT_LE(store.resident_bytes(), file_bytes + file_bytes / 2);
  std::remove(path_b.c_str());
}

TEST_F(ArtifactStoreTest, QueuedRequestsSurviveEvictionOfTheirModel) {
  // Regression (PR 10, evict-under-queued-request window): a request
  // admitted while its model was resident must complete kOk even when the
  // model is evicted before a worker dequeues it. submit() pins the
  // artifact at admission; without the pin, the dequeue-time registry
  // lookup comes back empty and the burst resolves kUnknownModel.
  const std::string path_b = temp_path("dfr_store_evictpin_b");
  save_as(make_model(kNodes, 2, 3, 33), path_b, 2);
  const std::size_t file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(path_v2_));

  ModelRegistry registry;
  ArtifactStore store(
      registry,
      ArtifactStoreConfig{.max_resident_bytes = file_bytes + file_bytes / 2});
  store.add("a", path_v2_);
  store.add("b", path_b);
  // One worker, deep queue: the burst below queues up behind the first
  // request, leaving a wide window for the eviction to land mid-queue.
  InferenceServer server(registry, {.workers = 1, .queue_capacity = 128});

  Rng rng(34);
  Matrix series(20, 2);
  for (std::size_t k = 0; k < series.rows(); ++k) {
    for (std::size_t v = 0; v < series.cols(); ++v) {
      series(k, v) = rng.uniform(-1.0, 1.0);
    }
  }

  ASSERT_NE(store.get("a"), nullptr);  // fault "a" in
  std::vector<serve::InferFuture> pending;
  pending.reserve(64);
  for (int i = 0; i < 64; ++i) {
    pending.push_back(server.submit("a", series));
  }
  // Evict "a" while (most of) the burst is still queued. The store only
  // fits one artifact, so faulting "b" in reclaims "a" immediately.
  ASSERT_NE(store.get("b"), nullptr);

  for (std::size_t i = 0; i < pending.size(); ++i) {
    const InferResult& result = pending[i].get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << "request " << i;
    ASSERT_FALSE(result.logits.empty());
  }
  std::remove(path_b.c_str());
}

// ---- madvise hints ---------------------------------------------------------

TEST_F(ArtifactStoreTest, MadviseHintsKeepMappingReadable) {
  // The hints are advisory, but the contract the store relies on is that
  // DONTNEED on a read-only MAP_PRIVATE file mapping never loses data: a
  // later touch re-faults the page from the file.
  const auto mapping = serve::MappedFile::map(path_v2_);
  ASSERT_NE(mapping, nullptr);
  std::vector<std::byte> before(mapping->data(),
                                mapping->data() + mapping->size());
  mapping->advise_willneed();
  EXPECT_EQ(std::memcmp(before.data(), mapping->data(), mapping->size()), 0);
  mapping->advise_dontneed();
  EXPECT_EQ(std::memcmp(before.data(), mapping->data(), mapping->size()), 0);
}

// ---- predictive prefetch ---------------------------------------------------

/// The acceptance measurement for predictive prefetch, deterministically:
/// a cyclic access pattern over a fleet larger than the LRU cap takes a
/// request-path cold fault on EVERY get without prefetch — and exactly zero
/// after warm-up with it, because the successor model faults the next
/// artifact in ahead of the request. wait_prefetch_idle() between gets
/// removes the scheduling race the loadgen tolerates statistically.
TEST_F(ArtifactStoreTest, PrefetchTakesColdFaultsOffTheRequestPathAfterWarmup) {
  const std::vector<std::string> ids = {"m0", "m1", "m2"};
  std::vector<std::string> paths;
  for (const std::string& id : ids) {
    paths.push_back(temp_path("dfr_store_prefetch_" + id));
    save_as(*model_, paths.back(), 2);
  }
  const std::size_t file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(paths[0]));

  ModelRegistry registry;
  ArtifactStoreConfig config;
  config.max_resident_bytes = 2 * file_bytes;  // fleet of 3, room for 2
  config.prefetch = true;
  ArtifactStore store(registry, config);
  for (std::size_t i = 0; i < ids.size(); ++i) store.add(ids[i], paths[i]);

  // Warm-up: two full cycles. The first trains the successor map (and
  // faults everything cold); the second still faults m0 (its prefetch
  // could not be predicted before m2 -> m0 was ever observed).
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (const std::string& id : ids) {
      ASSERT_NE(store.get(id), nullptr);
      store.wait_prefetch_idle();
    }
  }
  const std::uint64_t faults_after_warmup = store.counters().faults;
  EXPECT_GT(store.counters().prefetches, 0u);

  // Steady state: the successor chain is complete, so the background
  // worker stays one step ahead of the cycle and the request path never
  // faults again — the cold-fault counter must not move at all.
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (const std::string& id : ids) {
      ASSERT_NE(store.get(id), nullptr);
      store.wait_prefetch_idle();
    }
  }
  EXPECT_EQ(store.counters().faults, faults_after_warmup);
  // The LRU cap held throughout: prefetch loads evict through the same
  // accounting as request-path faults.
  EXPECT_LE(store.resident_bytes(), 2 * file_bytes);

  // The learned successor model is the cycle itself.
  EXPECT_EQ(store.predicted_successor("m0"), "m1");
  EXPECT_EQ(store.predicted_successor("m1"), "m2");
  EXPECT_EQ(store.predicted_successor("m2"), "m0");

  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST_F(ArtifactStoreTest, PrefetchCountsSeparatelyFromFaultsAndSwallowsErrors) {
  const std::string good = temp_path("dfr_store_prefetch_good");
  save_as(*model_, good, 2);

  ModelRegistry registry;
  ArtifactStore store(registry, ArtifactStoreConfig{});  // prefetch off: direct
  store.add("good", good);
  store.add("broken", temp_path("dfr_store_prefetch_missing"));

  store.prefetch("good");
  EXPECT_EQ(store.counters().prefetches, 1u);
  EXPECT_EQ(store.counters().faults, 0u);  // background load is not a fault
  // A get() after prefetch is a hit, not a fault.
  EXPECT_NE(store.get("good"), nullptr);
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(store.counters().faults, 0u);
  // Already-resident and untracked ids are no-ops.
  store.prefetch("good");
  store.prefetch("nonexistent");
  EXPECT_EQ(store.counters().prefetches, 1u);
  // A failing prefetch is swallowed (advisory), and the real get() still
  // reports the typed error.
  store.prefetch("broken");
  EXPECT_EQ(store.counters().prefetches, 1u);
  EXPECT_THROW((void)store.get("broken"), CheckError);

  std::remove(good.c_str());
}

}  // namespace
}  // namespace dfr
