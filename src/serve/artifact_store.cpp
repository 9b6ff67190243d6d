#include "serve/artifact_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "dfr/dfrm_format.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace dfr::serve {

// ---- MappedFile ------------------------------------------------------------

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  DFR_CHECK_MSG(fd >= 0, "cannot open for mapping: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    DFR_CHECK_MSG(false, "cannot stat (or empty) model file: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  DFR_CHECK_MSG(addr != MAP_FAILED, "mmap failed: " + path);
  return std::shared_ptr<const MappedFile>(new MappedFile(addr, size));
}

MappedFile::~MappedFile() { ::munmap(addr_, size_); }

void MappedFile::advise_willneed() const noexcept {
  ::madvise(addr_, size_, MADV_WILLNEED);
}

void MappedFile::advise_dontneed() const noexcept {
  ::madvise(addr_, size_, MADV_DONTNEED);
}

// ---- zero-copy loader ------------------------------------------------------

namespace {

/// Validate a v2 header against the mapped size and build the borrowed-view
/// artifact. Every check fires BEFORE any view is formed; a throw unwinds
/// the shared_ptr and unmaps — never a crash, never a partial map escaping.
ModelArtifactPtr artifact_from_mapping(
    std::shared_ptr<const MappedFile> mapping, const std::string& path,
    std::string name) {
  const std::byte* base = mapping->data();
  const std::size_t size = mapping->size();
  DFR_CHECK_MSG(size >= sizeof(dfrm::V2Header),
                "truncated DFRM v2 header: " + path);
  dfrm::V2Header hdr{};
  std::memcpy(&hdr, base, sizeof(hdr));  // header itself may be read unaligned
  DFR_CHECK_MSG(hdr.file_size == size,
                "DFRM v2 size mismatch (truncated or trailing data): " + path);
  DFR_CHECK_MSG(hdr.mask_rows > 0 && hdr.mask_cols > 0 &&
                    hdr.readout_rows > 0 && hdr.readout_cols > 0,
                "malformed matrix header: " + path);
  // Per-dimension bound keeps the rows*cols products passed to section()
  // below overflow for any real file size.
  const std::uint64_t max_doubles = size / sizeof(double);
  DFR_CHECK_MSG(hdr.mask_rows <= max_doubles && hdr.mask_cols <= max_doubles &&
                    hdr.readout_rows <= max_doubles &&
                    hdr.readout_cols <= max_doubles &&
                    hdr.bias_len <= max_doubles,
                "malformed matrix header: " + path);
  DFR_CHECK_MSG(hdr.nonlin_kind >= 0 &&
                    hdr.nonlin_kind <=
                        static_cast<std::int32_t>(NonlinearityKind::kSaturating),
                "unknown nonlinearity kind: " + path);
  auto section = [&](std::uint64_t offset, std::uint64_t count) {
    DFR_CHECK_MSG(offset % dfrm::kV2Align == 0,
                  "misaligned DFRM v2 section: " + path);
    DFR_CHECK_MSG(offset >= dfrm::kV2PayloadStart && offset <= size &&
                      count <= (size - offset) / sizeof(double),
                  "DFRM v2 section out of bounds: " + path);
    return reinterpret_cast<const double*>(base + offset);
  };
  const double* mask_p = section(hdr.mask_offset, hdr.mask_rows * hdr.mask_cols);
  const double* w_p =
      section(hdr.readout_offset, hdr.readout_rows * hdr.readout_cols);
  const double* bias_p = section(hdr.bias_offset, hdr.bias_len);

  ModelArtifact model;
  model.name = std::move(name);
  model.params.a = hdr.a;
  model.params.b = hdr.b;
  model.chosen_beta = hdr.chosen_beta;
  model.nonlinearity = Nonlinearity(
      static_cast<NonlinearityKind>(hdr.nonlin_kind), hdr.mg_exponent);
  model.mask = Mask(Matrix::borrow(mask_p, hdr.mask_rows, hdr.mask_cols));
  // The bias is Ny entries — copying it keeps OutputLayer's Vector type and
  // is far below "weight-sized" (the zero-copy contract the alloc-counting
  // test pins is about the O(Nx·V) and O(Ny·Nr) payloads).
  model.readout = OutputLayer(
      Matrix::borrow(w_p, hdr.readout_rows, hdr.readout_cols),
      Vector(bias_p, bias_p + hdr.bias_len));
  model.backing = std::move(mapping);  // unmap-on-last-release
  return std::make_shared<const ModelArtifact>(std::move(model));
}

}  // namespace

ModelArtifactPtr load_artifact_mmap(const std::string& path, std::string name) {
  std::shared_ptr<const MappedFile> mapping = MappedFile::map(path);
  DFR_CHECK_MSG(mapping->size() >= 8, "not a DFRM file: " + path);
  DFR_CHECK_MSG(std::memcmp(mapping->data(), dfrm::kMagic, 4) == 0,
                "not a DFRM file: " + path);
  std::uint32_t version = 0;
  std::memcpy(&version, mapping->data() + 4, sizeof(version));
  if (version == dfrm::kVersion1) {
    // Legacy stream-packed layout: nothing is aligned, so views cannot
    // borrow it. Same API, copying loader.
    mapping.reset();
    return load_artifact(path, std::move(name));
  }
  DFR_CHECK_MSG(version == dfrm::kVersion2, "unsupported DFRM version");
  return artifact_from_mapping(std::move(mapping), path, std::move(name));
}

// ---- ArtifactStore ---------------------------------------------------------

namespace {

/// Resident footprint of an artifact the copying loader produced.
std::size_t owned_weight_bytes(const ModelArtifact& artifact) noexcept {
  return (artifact.mask.weights().size() + artifact.readout.weights().size() +
          artifact.readout.bias().size()) *
         sizeof(double);
}

}  // namespace

namespace {

/// The MappedFile behind an artifact's pages, or null for copied weights.
std::shared_ptr<const MappedFile> mapping_of(const ModelArtifact& artifact) {
  return std::static_pointer_cast<const MappedFile>(artifact.backing);
}

}  // namespace

ArtifactStore::ArtifactStore(ModelRegistry& registry,
                             ArtifactStoreConfig config)
    : registry_(&registry), config_(config) {
  load_us_.reserve(config_.load_window);
  if (config_.prefetch) prefetch_queue_ = std::make_unique<BackgroundQueue>();
}

void ArtifactStore::add(std::string id, std::string path) {
  DFR_CHECK_MSG(!id.empty(), "artifact store id must not be empty");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(std::string_view(id));
  if (it == entries_.end()) {
    Entry entry;
    entry.path = std::move(path);
    entries_.emplace(std::move(id), std::move(entry));
  } else {
    it->second.path = std::move(path);
  }
}

ModelArtifactPtr ArtifactStore::fault_in_locked(const std::string& id,
                                                Entry& entry) {
  Timer timer;
  ModelArtifactPtr artifact = load_artifact_mmap(entry.path, id);
  // mmap-backed artifacts account the whole mapping; v1 fallbacks own
  // their weights.
  const auto mapping = mapping_of(*artifact);
  const std::size_t bytes = mapping != nullptr
                                ? mapping->size()
                                : owned_weight_bytes(*artifact);
  // Ask the kernel for the whole mapping ahead of first touch, so the
  // page-in cost is paid here instead of inside the first inference.
  if (mapping != nullptr) mapping->advise_willneed();
  const double load_us = static_cast<double>(timer.elapsed_ns()) * 1e-3;
  if (config_.load_window > 0) {
    if (load_us_.size() < config_.load_window) {
      load_us_.push_back(load_us);
    } else {
      load_us_[load_next_] = load_us;
    }
    load_next_ = (load_next_ + 1) % config_.load_window;
  }
  ++entry.loads;
  entry.last_load_us = load_us;

  registry_->register_model(artifact);
  entry.resident = true;
  entry.bytes = bytes;
  lru_.push_front(id);
  entry.lru_it = lru_.begin();
  resident_bytes_ += bytes;
  ++resident_models_;
  evict_to_cap(&entry);
  return artifact;
}

ModelArtifactPtr ArtifactStore::get(std::string_view id) {
  ModelArtifactPtr artifact;
  std::string predicted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return nullptr;
    Entry& entry = it->second;

    // Train the successor model on the observed id stream, then look up the
    // prediction for what follows THIS id (posted below, outside the lock).
    if (!last_get_id_.empty() && last_get_id_ != it->first) {
      successor_[last_get_id_] = it->first;
    }
    last_get_id_ = it->first;
    if (prefetch_queue_ != nullptr) {
      auto next = successor_.find(id);
      if (next != successor_.end() && next->second != it->first) {
        predicted = next->second;
      }
    }

    if (entry.resident) {
      artifact = registry_->get(id);
      if (artifact != nullptr) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, entry.lru_it);  // touch, no allocation
      } else {
        // Evicted externally (registry driven by someone else): heal
        // accounting and re-fault.
        note_nonresident(entry);
      }
    }
    if (artifact == nullptr) {
      ++faults_;
      artifact = fault_in_locked(it->first, entry);
    }
  }
  if (!predicted.empty()) {
    prefetch_queue_->post(
        [this, id = std::move(predicted)] { prefetch(id); });
  }
  return artifact;
}

void ArtifactStore::prefetch(std::string_view id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (entry.resident) {
    if (registry_->get(id) != nullptr) return;  // already warm: no LRU touch
    note_nonresident(entry);                    // externally evicted: heal
  }
  try {
    (void)fault_in_locked(it->first, entry);
    ++prefetches_;
  } catch (const CheckError&) {
    // Advisory by contract: a broken artifact surfaces as a typed error on
    // the real get() that needs it, not from the background worker.
  }
}

std::string ArtifactStore::predicted_successor(std::string_view id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = successor_.find(id);
  return it == successor_.end() ? std::string() : it->second;
}

void ArtifactStore::wait_prefetch_idle() {
  if (prefetch_queue_ != nullptr) prefetch_queue_->drain();
}

bool ArtifactStore::erase(std::string_view id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  if (it->second.resident) {
    if (const ModelArtifactPtr victim = registry_->get(it->first)) {
      if (const auto mapping = mapping_of(*victim)) mapping->advise_dontneed();
    }
    registry_->evict(it->first);
    note_nonresident(it->second);
    ++evictions_;
  }
  entries_.erase(it);
  return true;
}

void ArtifactStore::note_nonresident(Entry& entry) {
  resident_bytes_ -= entry.bytes;
  --resident_models_;
  entry.bytes = 0;
  entry.resident = false;
  lru_.erase(entry.lru_it);
}

void ArtifactStore::evict_to_cap(const Entry* keep) {
  if (config_.max_resident_bytes == 0) return;
  while (resident_bytes_ > config_.max_resident_bytes && !lru_.empty()) {
    const std::string& victim_id = lru_.back();
    auto it = entries_.find(std::string_view(victim_id));
    DFR_CHECK_MSG(it != entries_.end() && it->second.resident,
                  "artifact store LRU out of sync");
    if (&it->second == keep) break;  // never evict the artifact just faulted in
    // Drop the victim's clean pages now — the mapping itself may linger on
    // in-flight references, but the kernel can reclaim the memory
    // immediately (a late touch re-faults from the file).
    if (const ModelArtifactPtr victim = registry_->get(victim_id)) {
      if (const auto mapping = mapping_of(*victim)) mapping->advise_dontneed();
    }
    // The mapping unmaps when the last in-flight request on it resolves;
    // the server holds the model no longer than that.
    registry_->evict(victim_id);
    note_nonresident(it->second);
    ++evictions_;
  }
}

std::size_t ArtifactStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

ArtifactStoreCounters ArtifactStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ArtifactStoreCounters{hits_,           faults_,
                               evictions_,      prefetches_,
                               resident_bytes_, resident_models_,
                               entries_.size()};
}

Summary ArtifactStore::load_latency_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return load_us_.empty() ? Summary{} : summarize(load_us_);
}

void ArtifactStore::export_stats(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "dfr_store_resident_bytes " << resident_bytes_ << '\n';
  os << "dfr_store_resident_models " << resident_models_ << '\n';
  os << "dfr_store_tracked_models " << entries_.size() << '\n';
  os << "dfr_store_hits_total " << hits_ << '\n';
  os << "dfr_store_faults_total " << faults_ << '\n';
  os << "dfr_store_evictions_total " << evictions_ << '\n';
  os << "dfr_store_prefetches_total " << prefetches_ << '\n';
  if (!load_us_.empty()) {
    const Summary s = summarize(load_us_);
    os << "dfr_store_load_us{quantile=\"0.5\"} " << s.p50 << '\n';
    os << "dfr_store_load_us{quantile=\"0.99\"} " << s.p99 << '\n';
  }
  for (const auto& [id, entry] : entries_) {
    if (entry.resident) {
      os << "dfr_model_resident_bytes{model=\"" << id << "\"} " << entry.bytes
         << '\n';
    }
    if (entry.loads > 0) {
      os << "dfr_model_load_us{model=\"" << id << "\"} " << entry.last_load_us
         << '\n';
    }
  }
}

}  // namespace dfr::serve
