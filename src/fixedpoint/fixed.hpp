#pragma once
// Fixed-point arithmetic model for hardware deployment studies.
//
// DFRs exist to be implemented in small digital/analog circuits; a deployed
// modular DFR quantizes states, mask products and readout weights to a signed
// fixed-point format Q(int_bits, frac_bits). This module models that format
// in software: quantize() rounds-to-nearest and saturates, so accuracy-vs-
// word-length sweeps (bench_quantization) predict the silicon behaviour of a
// given format choice.

#include <cstdint>
#include <string>

#include "linalg/matrix.hpp"

namespace dfr {

/// Signed fixed-point format: 1 sign bit + int_bits + frac_bits.
class FixedPointFormat {
 public:
  FixedPointFormat(int int_bits, int frac_bits);

  [[nodiscard]] int int_bits() const noexcept { return int_bits_; }
  [[nodiscard]] int frac_bits() const noexcept { return frac_bits_; }
  [[nodiscard]] int word_length() const noexcept {
    return 1 + int_bits_ + frac_bits_;
  }

  // always_inline on the two getters the AVX2/AVX-512 kernel objects read:
  // an out-of-line copy there could be the one the linker keeps for every
  // caller (see Nonlinearity::kind).

  /// Representable magnitude bound (saturation threshold).
  [[nodiscard, gnu::always_inline]] double max_value() const noexcept {
    return max_value_;
  }
  /// Quantization step (1 ulp).
  [[nodiscard, gnu::always_inline]] double resolution() const noexcept {
    return resolution_;
  }

  /// Round-to-nearest, saturate to the representable range.
  [[nodiscard]] double quantize(double value) const noexcept;

  /// Quantize a whole vector / matrix in place.
  void quantize(Vector& values) const noexcept;
  void quantize(Matrix& values) const noexcept;

  /// e.g. "Q4.11 (16b)".
  [[nodiscard]] std::string to_string() const;

 private:
  int int_bits_;
  int frac_bits_;
  double resolution_;
  double max_value_;
};

}  // namespace dfr
