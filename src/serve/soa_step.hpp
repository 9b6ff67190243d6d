#pragma once
// The lane set: the one lockstep forward, up to kBatchedMaxLanes series
// stepped together with their DPRR accumulated across lanes. The batched
// serving engine (serve/engine.hpp, BatchedScratch) and the training forward
// (dfr/backprop.hpp, ForwardLanes) both run on it.
//
// Blocks are indexed [node*width + lane]: a group of `lanes` series runs on
// `lanes` rounded up to whole kPadLanes vectors, so the SoA step and the
// lane kernel run no scalar lane remainder; the pad lanes repeat the first
// series, and their results are never read. advance() gathers each lane's
// input row and runs a SIMD datapath's two SoA stages, mask_soa (the mask
// and, for the quantized family, its round-to-format) -> step_soa (preadd +
// nonlinearity, then the cross-lane B-chain), writing x(k) straight into
// the next block of a ring of kBlockSteps + 1 blocks. Each full ring goes
// through the lane DPRR kernel given at start() in one call, which
// accumulates every lane's r, laid out [feature][lane]. The ring and r start
// on a 64-byte line, so at 8 lanes every lane vector fills one line: a
// vector split over two lines costs the lane kernel 12-16% (README, "The
// DPRR across lanes"). Storage is sized by resize(); nothing else allocates.

#include <algorithm>
#include <cstdint>
#include <span>

#include "dfr/dprr.hpp"
#include "linalg/matrix.hpp"
#include "serve/simd_kernels.hpp"
#include "util/check.hpp"

namespace dfr {

class SoaStep {
 public:
  /// Steps per lane-kernel call: the ring holds kBlockSteps + 1 state
  /// blocks. Chosen by measurement (README, "The DPRR across lanes").
  static constexpr std::size_t kBlockSteps = 32;
  /// A group runs on a multiple of this many lanes: a whole AVX2 vector, and
  /// the AVX-512 set's 256-bit half step.
  static constexpr std::size_t kPadLanes = 4;

  /// Storage for groups of up to `max_lanes` series of `nx` nodes and
  /// `channels` inputs. It grows only past the largest shape it held, so one
  /// SoaStep serves models of several shapes and stops allocating once it
  /// has served the largest.
  void resize(std::size_t nx, std::size_t channels, std::size_t max_lanes) {
    nx_ = nx;
    channels_ = channels;
    max_width_ = padded(max_lanes);
    const std::size_t ring = (kBlockSteps + 1) * nx * max_width_;
    ring_size_ = (ring + kLineDoubles - 1) / kLineDoubles * kLineDoubles;
    u_.resize(channels * max_width_);
    j_.resize(nx * max_width_);
    buf_.resize(ring_size_ + dprr_dim(nx) * max_width_ + kLineDoubles - 1);
  }

  /// Begin a group of `lanes` series (1 to the resize() max_lanes), whose
  /// DPRR `kernel` accumulates: x(0) = 0 and r = 0 in every lane.
  void start(std::size_t lanes, simd::DprrLanesFn kernel) {
    DFR_DCHECK(lanes >= 1 && padded(lanes) <= max_width_);
    lanes_ = lanes;
    width_ = padded(lanes);
    kernel_ = kernel;
    pending_ = 0;
    double* const ring = line_start();
    std::fill_n(ring, nx_ * width_, 0.0);
    std::fill_n(ring + ring_size_, dprr_dim(nx_) * width_, 0.0);
  }

  /// One step: lane l reads row k of *series[l] (series.size() == the
  /// start() lane count, every series channels() wide). Returns the state
  /// block x(k), valid until the next call.
  template <typename Datapath>
  const double* advance(const Datapath& datapath,
                        std::span<const Matrix* const> series, std::size_t k) {
    DFR_DCHECK(series.size() == lanes_);
    // Gather this time step's raw inputs into SoA (channels*width cheap
    // copies), then mask all lanes at once: j_[i*width + l] = (M u_l(k))_i.
    // The batched mask kernel preserves the scalar dot() order per lane, so
    // this stage stays bit-identical to per-lane Mask::apply_into.
    for (std::size_t l = 0; l < width_; ++l) {
      const auto row = series[l < lanes_ ? l : 0]->row(k);
      for (std::size_t v = 0; v < channels_; ++v) u_[v * width_ + l] = row[v];
    }
    const std::size_t block = nx_ * width_;
    double* const x = line_start() + (pending_ + 1) * block;
    datapath.mask_soa(u_.data(), j_.data(), width_);
    datapath.step_soa(j_.data(), x - block, x, width_);
    if (++pending_ == kBlockSteps) flush();
    return x;
  }

  /// The last step's masked input block j(k).
  [[nodiscard]] const double* masked() const noexcept { return j_.data(); }
  /// The group's lanes with its pad lanes: the lane stride of every block.
  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  /// Lane `lane`'s DPRR r (raw sums) over every step since start(), into
  /// the dprr_dim(nx) doubles at `out`.
  void read_dprr(std::size_t lane, double* out) noexcept {
    flush();
    const double* r = line_start() + ring_size_ + lane;
    for (std::size_t f = 0; f < dprr_dim(nx_); ++f) out[f] = r[f * width_];
  }

 private:
  static constexpr std::size_t kLineDoubles = 64 / sizeof(double);

  static constexpr std::size_t padded(std::size_t lanes) noexcept {
    return (lanes + kPadLanes - 1) / kPadLanes * kPadLanes;
  }

  /// buf_ from its first 64-byte line, which holds kLineDoubles - 1 spare
  /// doubles for it.
  double* line_start() noexcept {
    const auto addr = reinterpret_cast<std::uintptr_t>(buf_.data());
    return buf_.data() + (-addr % 64) / sizeof(double);
  }

  /// Ring blocks 1..pending_ into r; the last becomes the next block's
  /// x(k0-1).
  void flush() noexcept {
    if (pending_ == 0) return;
    const std::size_t block = nx_ * width_;
    double* const ring = line_start();
    kernel_(ring + ring_size_, ring, pending_, nx_, width_);
    std::copy_n(ring + pending_ * block, block, ring);
    pending_ = 0;
  }

  std::size_t nx_ = 0;
  std::size_t channels_ = 0;
  std::size_t max_width_ = 0;  // resize()'s max_lanes, padded
  std::size_t ring_size_ = 0;  // the ring's doubles, in whole lines
  std::size_t lanes_ = 0;      // the group's series
  std::size_t width_ = 0;      // the group's lanes, padded
  std::size_t pending_ = 0;    // steps in ring blocks 1..pending_, not yet in r
  simd::DprrLanesFn kernel_ = nullptr;
  Vector u_;    // raw inputs, channels x width
  Vector j_;    // masked inputs, nx x width
  // From its first 64-byte line: the ring, kBlockSteps + 1 blocks of
  // nx x width states, then every lane's r, dprr_dim(nx) x width.
  Vector buf_;
};

}  // namespace dfr
