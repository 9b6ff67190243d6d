#include "dfr/dprr.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace dfr {

Vector dprr_from_states(const Matrix& states) {
  DFR_CHECK_MSG(states.rows() >= 2, "need at least x(0) and x(1)");
  const std::size_t nx = states.cols();
  const std::size_t t_len = states.rows() - 1;
  const simd::DprrBlockFn block = simd::active_kernels().dprr_block_exact;
  Vector r(dprr_dim(nx), 0.0);
  for (std::size_t k = 0; k < t_len; k += DprrAccumulator::kBlockSteps) {
    block(r.data(), states.row(k).data(),
          std::min(DprrAccumulator::kBlockSteps, t_len - k), nx);
  }
  return r;
}

simd::DprrBlockFn dprr_block_kernel(DprrRounding rounding,
                                    simd::Backend backend) {
  const simd::Kernels& kernels = simd::kernels_for(backend);
  return rounding == DprrRounding::kFloat ? kernels.dprr_block
                                          : kernels.dprr_block_exact;
}

DprrAccumulator::DprrAccumulator(std::size_t nx, DprrRounding rounding,
                                 simd::Backend backend) {
  reset(nx, dprr_block_kernel(rounding, backend));
}

void DprrAccumulator::commit() noexcept {
  ++steps_;
  if (++pending_ == kBlockSteps) flush();
}

void DprrAccumulator::add(std::span<const double> x_k,
                          std::span<const double> x_km1) {
  DFR_DCHECK(x_k.size() == nx_ && x_km1.size() == nx_);
  const std::span<const double> prev = previous();
  if (x_km1.data() != prev.data() &&
      std::memcmp(x_km1.data(), prev.data(), nx_ * sizeof(double)) != 0) {
    flush();
    std::copy(x_km1.begin(), x_km1.end(), ring_.begin());
  }
  std::copy(x_k.begin(), x_k.end(), next().begin());
  commit();
}

const Vector& DprrAccumulator::features() noexcept {
  flush();
  return r_;
}

void DprrAccumulator::flush() noexcept {
  if (pending_ == 0) return;
  block_(r_.data(), ring_.data(), pending_, nx_);
  // The block's last state is the next block's x(k0-1).
  std::copy_n(ring_.data() + pending_ * nx_, nx_, ring_.data());
  pending_ = 0;
}

void DprrAccumulator::reset() noexcept {
  std::fill(r_.begin(), r_.end(), 0.0);
  std::fill_n(ring_.begin(), nx_, 0.0);
  steps_ = 0;
  pending_ = 0;
}

void DprrAccumulator::reset(std::size_t nx, simd::DprrBlockFn block) {
  DFR_CHECK(nx > 0);
  nx_ = nx;
  block_ = block;
  ring_.resize((kBlockSteps + 1) * nx);
  r_.resize(dprr_dim(nx));
  reset();
}

}  // namespace dfr
