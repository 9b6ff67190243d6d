#pragma once
// Nonlinearity library for the modular DFR.
//
// The modular DFR model (Ikeda et al., TECS'23) reduces the reservoir's
// nonlinear element to a one-input one-output function f with an outer gain:
// the node update is x = A*f~(s) + B*x_prev. Backpropagation requires f~ and
// its derivative f~'. The paper's evaluation fixes f~(s) = s ("f(x) = A x");
// the remaining kinds exercise the model's claim that f is freely selectable
// as long as its derivative is cheap:
//   kIdentity     f~(s) = s
//   kMackeyGlass  f~(s) = s / (1 + |s|^p)    (digital MG transfer, p >= 1)
//   kTanh         f~(s) = tanh(s)
//   kSine         f~(s) = sin(s)             (Ikeda-style optical DFRs)
//   kCubic        f~(s) = s - s^3/3          (soft saturating polynomial)
//   kSaturating   f~(s) = s / (1 + |s|)      (piecewise-smooth, HW-friendly)

#include <string>

namespace dfr {

enum class NonlinearityKind {
  kIdentity,
  kMackeyGlass,
  kTanh,
  kSine,
  kCubic,
  kSaturating,
};

NonlinearityKind parse_nonlinearity(const std::string& name);
std::string nonlinearity_name(NonlinearityKind kind);

/// Value-semantic nonlinearity: f~(s) and f~'(s).
class Nonlinearity {
 public:
  /// `p` is the Mackey–Glass exponent (ignored by other kinds).
  explicit Nonlinearity(NonlinearityKind kind = NonlinearityKind::kIdentity,
                        double p = 1.0);

  // always_inline: the AVX2/AVX-512 kernel objects read this, and an
  // out-of-line copy there could be the one the linker keeps for every
  // caller (CI checks those objects define no dfr:: inline code).
  [[nodiscard, gnu::always_inline]] NonlinearityKind kind() const noexcept {
    return kind_;
  }
  [[nodiscard]] double mg_exponent() const noexcept { return p_; }

  /// f~(s).
  [[nodiscard]] double value(double s) const noexcept;

  /// d f~ / d s.
  [[nodiscard]] double derivative(double s) const noexcept;

  /// Evaluate both at once (saves a |s|^p in the MG case).
  struct ValueAndSlope {
    double value;
    double slope;
  };
  [[nodiscard]] ValueAndSlope value_and_slope(double s) const noexcept;

 private:
  NonlinearityKind kind_;
  double p_;
};

}  // namespace dfr
