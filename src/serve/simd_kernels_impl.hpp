#pragma once
// The one body of every ISA kernel set (simd_kernels.hpp's `Kernels`), as
// templates over a per-ISA vector-ops trait. Private to the ISA translation
// units: simd_kernels_{avx2,avx512,neon}.cpp each define a trait, include
// this header INSIDE their arch guard (so the per-file -m flags and
// -ffp-contract=off apply to every instantiation) and build their table with
// kernel_table<Trait>(backend).
//
// A trait `Ops` provides, all static:
//   vec, kWidth             the vector type and its doubles per vector
//   load(p), store(p, v)    unaligned
//   set1(x)                 broadcast
//   add, sub, mul, div      lane-wise IEEE-754, one rounding each
//   fma(a, b, c)            a*b + c with one rounding
//   abs, min, max           min/max(a, b) need only order non-NaN lanes
//   round(v)                to integral under the current rounding mode
//                           (== std::nearbyint lane-wise)
//   zero_nan(probe, v)      v with the lanes where `probe` is NaN set to +0.0
//   add_nonzero(acc, probe, v)
//                           acc + v in the lanes where `probe` != ±0.0 (NaN
//                           included), acc unchanged where it is ±0.0
// and optionally `Half`, a trait of the same shape at half the width.
//
// Remainder policy, in one place (for_each_block) and the same on every ISA
// and loop shape (Nx for the single-series kernels, lanes for the batched
// ones, rows or features for the ridge products): whole vectors first, then
// one Ops::Half vector when the trait has one and at least that many
// elements remain, then a scalar remainder that runs the same block body
// through ScalarOps, one double at a time. A
// remainder element therefore performs its lane's operations: std::fma
// where the body fuses, one rounding per add and multiply elsewhere (these
// TUs build with -ffp-contract=off, so nothing else fuses). No masked loads
// or stores.
//
// Everything here lives in an unnamed namespace, and so must every trait a
// TU defines (Half ones included). Each TU's instantiations must stay its
// own: a helper with external linkage would be emitted as one weak symbol in
// both the AVX2 and the AVX-512 object, and the linker would keep one copy,
// compiled for one ISA, for both callers.
#include <cmath>
#include <cstddef>
#include <type_traits>

#include "serve/simd_kernels.hpp"

namespace dfr::simd {
namespace {

/// The trait of the scalar remainder: a "vector" of one double, with the
/// lane semantics of the x86 traits (min/max return the second operand when
/// unordered; the quantizer's zero_nan overrides those lanes anyway).
struct ScalarOps {
  using vec = double;
  static constexpr std::size_t kWidth = 1;

  static vec load(const double* p) noexcept { return *p; }
  static void store(double* p, vec v) noexcept { *p = v; }
  static vec set1(double x) noexcept { return x; }
  static vec add(vec a, vec b) noexcept { return a + b; }
  static vec sub(vec a, vec b) noexcept { return a - b; }
  static vec mul(vec a, vec b) noexcept { return a * b; }
  static vec div(vec a, vec b) noexcept { return a / b; }
  static vec fma(vec a, vec b, vec c) noexcept { return std::fma(a, b, c); }
  static vec abs(vec v) noexcept { return std::fabs(v); }
  static vec min(vec a, vec b) noexcept { return a < b ? a : b; }
  static vec max(vec a, vec b) noexcept { return a > b ? a : b; }
  static vec round(vec v) noexcept { return std::nearbyint(v); }
  // probe != probe only for NaN. (Not std::isnan: that is an inline library
  // function, which an unoptimized build would emit as a weak symbol in
  // every ISA object.)
  static vec zero_nan(vec probe, vec v) noexcept {
    return probe != probe ? 0.0 : v;
  }
  static vec add_nonzero(vec acc, vec probe, vec v) noexcept {
    return probe == 0.0 ? acc : acc + v;
  }
};

/// The remainder policy: body(Ops{}, i) for each whole vector of [0, n), then
/// body(Ops::Half{}, i) once if the trait has a half width and it fits, then
/// body(ScalarOps{}, i) for each remaining index. `body` is generic over its
/// ops tag.
template <class Ops, class Body>
inline void for_each_block(std::size_t n, const Body& body) {
  std::size_t i = 0;
  for (; i + Ops::kWidth <= n; i += Ops::kWidth) body(Ops{}, i);
  if constexpr (requires { typename Ops::Half; }) {
    using Half = typename Ops::Half;
    if (i + Half::kWidth <= n) {
      body(Half{}, i);
      i += Half::kWidth;
    }
  }
  for (; i < n; ++i) body(ScalarOps{}, i);
}

/// The DPRR accumulate's rounding, fixed per `Kernels` entry: kFloat fuses
/// each r + x*y into one rounding (the float family, ULP-bounded); kExact
/// multiplies then adds, two roundings exactly like the scalar reference
/// (the quantized family and training, bit-identical).
enum class Accumulate { kFloat, kExact };

template <class O, Accumulate kMode>
inline typename O::vec madd(typename O::vec x, typename O::vec y,
                            typename O::vec r) noexcept {
  if constexpr (kMode == Accumulate::kFloat) {
    return O::fma(x, y, r);
  } else {
    return O::add(r, O::mul(x, y));
  }
}

/// FixedPointFormat's constants, read once per kernel call.
struct QuantizeConsts {
  double inv_res, res, hi, lo;
  explicit QuantizeConsts(const FixedPointFormat& fmt) noexcept
      : inv_res(1.0 / fmt.resolution()),
        res(fmt.resolution()),
        hi(fmt.max_value()),
        lo(-fmt.max_value() - fmt.resolution()) {}
};

/// Twin of FixedPointFormat::quantize, bit-identical lane-wise: multiply by
/// 1/resolution (scaling by an exact power of two rounds identically to the
/// scalar's division by resolution), round to nearest under the current
/// rounding mode, multiply back, clamp to [-max-res, max], and zero NaN lanes
/// (the scalar returns 0.0 for NaN).
template <class O>
inline typename O::vec quantize(typename O::vec v,
                                const QuantizeConsts& q) noexcept {
  const typename O::vec out =
      O::mul(O::round(O::mul(v, O::set1(q.inv_res))), O::set1(q.res));
  return O::zero_nan(v, O::max(O::min(out, O::set1(q.hi)), O::set1(q.lo)));
}

// out[n] = a * f~(s_n) with s_n = make_s(ops, n): the float preadd loads
// s = j[n] + x_prev[n], the quantized preadd additionally rounds s to the
// state format. The polynomial / rational nonlinearities are written once
// over the ops tag with the scalar evaluation order preserved; the
// libm-backed ones (tanh, sine, Mackey–Glass with its pow) keep per-element
// scalar calls on top of the same s-production semantics, so the stage
// contract is unaffected.
template <class Ops, class MakeS>
inline void preadd_nonlin_body(const Nonlinearity& f, double a, double* out,
                               std::size_t nx, const MakeS& make_s) {
  const auto run = [&](const auto& value_of) {
    for_each_block<Ops>(nx, [&]<class O>(O ops, std::size_t n) {
      O::store(out + n, O::mul(O::set1(a), value_of(ops, make_s(ops, n))));
    });
  };
  switch (f.kind()) {
    case NonlinearityKind::kIdentity:
      run([](auto, auto s) { return s; });
      return;
    case NonlinearityKind::kCubic:
      // s - s*s*s/3, evaluated as ((s*s)*s)/3 like the scalar expression.
      run([]<class O>(O, typename O::vec s) {
        return O::sub(s, O::div(O::mul(O::mul(s, s), s), O::set1(3.0)));
      });
      return;
    case NonlinearityKind::kSaturating:
      run([]<class O>(O, typename O::vec s) {
        return O::div(s, O::add(O::set1(1.0), O::abs(s)));
      });
      return;
    case NonlinearityKind::kMackeyGlass:
    case NonlinearityKind::kTanh:
    case NonlinearityKind::kSine:
      for (std::size_t n = 0; n < nx; ++n) {
        out[n] = a * f.value(make_s(ScalarOps{}, n));
      }
      return;
  }
}

template <class Ops>
void preadd_nonlin(const Nonlinearity& f, double a, const double* j,
                   const double* x_prev, double* out, std::size_t nx) {
  preadd_nonlin_body<Ops>(f, a, out, nx, [&]<class O>(O, std::size_t n) {
    return O::add(O::load(j + n), O::load(x_prev + n));
  });
}

template <class Ops>
void quant_preadd_nonlin(const Nonlinearity& f, double a,
                         const FixedPointFormat& fmt, const double* j,
                         const double* x_prev, double* out, std::size_t nx) {
  const QuantizeConsts q(fmt);
  preadd_nonlin_body<Ops>(f, a, out, nx, [&]<class O>(O, std::size_t n) {
    return quantize<O>(O::add(O::load(j + n), O::load(x_prev + n)), q);
  });
}

template <class Ops>
void scale_quantize(const FixedPointFormat& fmt, double scale, double* values,
                    std::size_t n) {
  const QuantizeConsts q(fmt);
  for_each_block<Ops>(n, [&]<class O>(O, std::size_t i) {
    O::store(values + i,
             quantize<O>(O::mul(O::load(values + i), O::set1(scale)), q));
  });
}

// ---- time-blocked DPRR (DprrBlockFn) ----------------------------------------
// The register tile: kDprrTileRows rows of r by one vector of columns stay in
// registers across every step of a block, so a block loads and stores each
// element of r once, where one call per step loads and stores it every step.
// Eight rows give eight independent accumulator chains, enough to cover the
// add latency of exact rounding even in the scalar remainder columns. Chosen
// from the kernel ledger (BM_Kernel/dprr_block*, see README).
inline constexpr std::size_t kDprrTileRows = 8;

// One tile: rows [i0, i0+kRows) of r by one vector of O from column j0. Each
// step k adds x(k)_i * x(k-1)_j, rounded per kMode, in time order.
template <class O, std::size_t kRows, Accumulate kMode>
inline void dprr_tile(double* r, const double* states, std::size_t steps,
                      std::size_t nx, std::size_t i0, std::size_t j0) {
  typename O::vec acc[kRows];
  for (std::size_t a = 0; a < kRows; ++a) {
    acc[a] = O::load(r + (i0 + a) * nx + j0);
  }
  for (std::size_t k = 0; k < steps; ++k) {
    const typename O::vec xj = O::load(states + k * nx + j0);
    const double* x_k = states + (k + 1) * nx + i0;
    for (std::size_t a = 0; a < kRows; ++a) {
      acc[a] = madd<O, kMode>(O::set1(x_k[a]), xj, acc[a]);
    }
  }
  for (std::size_t a = 0; a < kRows; ++a) {
    O::store(r + (i0 + a) * nx + j0, acc[a]);
  }
}

/// f(std::integral_constant<std::size_t, R>{}) with R = min(rows, kMax): a
/// full row band gets the whole tile height, the last band its exact count.
template <std::size_t kMax, class F>
inline void with_tile_rows(std::size_t rows, const F& f) {
  if constexpr (kMax > 1) {
    if (rows < kMax) return with_tile_rows<kMax - 1>(rows, f);
  }
  f(std::integral_constant<std::size_t, kMax>{});
}

// r[i*nx + j] += x(k)_i * x(k-1)_j over the block's steps, tile by tile, plus
// the r[nx^2 + i] += x(k)_i node-sum column, one add per step in time order.
template <class Ops, Accumulate kMode>
void dprr_block(double* r, const double* states, std::size_t steps,
                std::size_t nx) {
  for (std::size_t i = 0; i < nx; i += kDprrTileRows) {
    with_tile_rows<kDprrTileRows>(nx - i, [&](auto rows) {
      for_each_block<Ops>(nx, [&]<class O>(O, std::size_t j) {
        dprr_tile<O, decltype(rows)::value, kMode>(r, states, steps, nx, i, j);
      });
    });
  }
  double* sums = r + nx * nx;
  for_each_block<Ops>(nx, [&]<class O>(O, std::size_t i) {
    typename O::vec sum = O::load(sums + i);
    for (std::size_t k = 1; k <= steps; ++k) {
      sum = O::add(sum, O::load(states + k * nx + i));
    }
    O::store(sums + i, sum);
  });
}

// ---- batched (SoA) kernels: vectors span lanes, i.e. independent series ----
// The B-chain dependence runs across node rows, never across lanes, so the
// chain that serializes the single-series path becomes full-width
// multiply+adds per node row here (no FMA — each lane must round exactly like
// the scalar B-chain; see the batched contract in simd_kernels.hpp).

// x_n = finish(v_n + b * x_{n-1}) per lane, where `finish` is the identity
// for the float chain and the state-format quantization for the quantized
// one.
template <class Ops, class Finish>
inline void bchain_body(double b, const double* head, double* x,
                        std::size_t nx, std::size_t lanes,
                        const Finish& finish) {
  const double* prev = head;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for_each_block<Ops>(lanes, [&]<class O>(O ops, std::size_t l) {
      O::store(row + l,
               finish(ops, O::add(O::load(row + l),
                                  O::mul(O::set1(b), O::load(prev + l)))));
    });
    prev = row;
  }
}

template <class Ops>
void batched_bchain(double b, const double* head, double* x, std::size_t nx,
                    std::size_t lanes) {
  bchain_body<Ops>(b, head, x, nx, lanes, [](auto, auto v) { return v; });
}

template <class Ops>
void batched_quant_bchain(double b, const FixedPointFormat& fmt,
                          const double* head, double* x, std::size_t nx,
                          std::size_t lanes) {
  const QuantizeConsts q(fmt);
  bchain_body<Ops>(b, head, x, nx, lanes,
                   [&]<class O>(O, typename O::vec v) {
                     return quantize<O>(v, q);
                   });
}

// Batched SoA mask: broadcast one weight, multiply by the channel's lane
// vector, accumulate with separate mul + add in ascending v — the scalar
// dot() order per lane, so every lane is bit-identical to Mask::apply_into.
template <class Ops>
void batched_mask(const double* weights, std::size_t nx, std::size_t channels,
                  const double* u, double* j, std::size_t lanes) {
  for (std::size_t i = 0; i < nx; ++i) {
    const double* wi = weights + i * channels;
    double* row = j + i * lanes;
    for_each_block<Ops>(lanes, [&]<class O>(O, std::size_t l) {
      typename O::vec acc = O::set1(0.0);
      for (std::size_t v = 0; v < channels; ++v) {
        acc = O::add(acc, O::mul(O::set1(wi[v]), O::load(u + v * lanes + l)));
      }
      O::store(row + l, acc);
    });
  }
}

// ---- the DPRR across lanes (DprrLanesFn) ------------------------------------
// A vector holds one element of r, or one node of a state, for consecutive
// lanes, so every vector operation is whole at any Nx. A tile of kRows x
// kCols elements (i, j) of r stays in registers across a block's steps; each
// step loads kRows lane vectors x(k)_i and kCols lane vectors x(k-1)_j for
// kRows * kCols multiply-adds, each rounded per kMode with the per-lane
// kernel's operands (dprr_tile), so every lane keeps that kernel's bits.

// The tile edge per vector width, chosen by measurement (README, "The DPRR
// across lanes"): 5 x 5 at 8 doubles, whose 25 accumulators
// and 6 operands take 31 of AVX-512's 32 registers; 3 x 3 below it, where 16
// registers are addressable (AVX2, and the VEX-encoded 256-bit half step of
// the AVX-512 set) or the step is the scalar lane remainder.
template <class O>
inline constexpr std::size_t kLaneTile = O::kWidth >= 8 ? 5 : 3;

// One tile at rows i0.. and columns j0.. of the lane vector that `r` and
// `states` already point at.
template <class O, std::size_t kRows, std::size_t kCols, Accumulate kMode>
inline void dprr_lanes_tile(double* r, const double* states, std::size_t steps,
                            std::size_t nx, std::size_t lanes, std::size_t i0,
                            std::size_t j0) {
  const std::size_t block = nx * lanes;
  typename O::vec acc[kRows][kCols];
  for (std::size_t a = 0; a < kRows; ++a) {
    const double* r_a = r + ((i0 + a) * nx + j0) * lanes;
    for (std::size_t b = 0; b < kCols; ++b) {
      acc[a][b] = O::load(r_a + b * lanes);
    }
  }
  const double* x_j = states + j0 * lanes;          // x(k-1), column j0
  const double* x_i = states + block + i0 * lanes;  // x(k), row i0
  const double* const end = x_j + steps * block;
  // steps >= 1: a loop known to run lets GCC keep the accumulators in
  // registers from the loads to the stores, not copy them through the stack.
  do {
    typename O::vec xj[kCols];
    for (std::size_t b = 0; b < kCols; ++b) xj[b] = O::load(x_j + b * lanes);
    for (std::size_t a = 0; a < kRows; ++a) {
      const typename O::vec xi = O::load(x_i + a * lanes);
      for (std::size_t b = 0; b < kCols; ++b) {
        acc[a][b] = madd<O, kMode>(xi, xj[b], acc[a][b]);
      }
    }
    x_j += block;
    x_i += block;
  } while (x_j != end);
  for (std::size_t a = 0; a < kRows; ++a) {
    double* r_a = r + ((i0 + a) * nx + j0) * lanes;
    for (std::size_t b = 0; b < kCols; ++b) {
      O::store(r_a + b * lanes, acc[a][b]);
    }
  }
}

// Lane vector by lane vector: the Nx x Nx block tile by tile, then the
// node-sum rows, one add per step in time order.
template <class Ops, Accumulate kMode>
void dprr_lanes(double* r, const double* states, std::size_t steps,
                std::size_t nx, std::size_t lanes) {
  const std::size_t block = nx * lanes;
  for_each_block<Ops>(lanes, [&]<class O>(O, std::size_t l) {
    constexpr std::size_t kTile = kLaneTile<O>;
    for (std::size_t i = 0; i < nx; i += kTile) {
      with_tile_rows<kTile>(nx - i, [&](auto rows) {
        for (std::size_t j = 0; j < nx; j += kTile) {
          with_tile_rows<kTile>(nx - j, [&](auto cols) {
            dprr_lanes_tile<O, decltype(rows)::value, decltype(cols)::value,
                            kMode>(r + l, states + l, steps, nx, lanes, i, j);
          });
        }
      });
    }
    for (std::size_t i = 0; i < nx; ++i) {
      double* sum_i = r + (nx * nx + i) * lanes + l;
      typename O::vec sum = O::load(sum_i);
      for (std::size_t k = 1; k <= steps; ++k) {
        sum = O::add(sum, O::load(states + k * block + i * lanes + l));
      }
      O::store(sum_i, sum);
    }
  });
}

// ---- ridge readout products (RowGramFn, BackProjectFn) ----------------------
// Exact rounding throughout (a separate multiply and add, never FMA), and
// every output summed from 0.0 in the scalar entry's order: the vectors run
// independent outputs side by side, so each output keeps its bits.

// The row kernel's tile: kGramTileRows rows i against two vectors of rows j,
// eight independent sums held in registers across a panel of columns. The
// band of rows j is first transposed into `panel` (kGramPanelCols x band
// doubles on the stack), so that one vector load reads column c of every row
// j in the band. A tile's partial sums park in k between panels, which
// resumes each sum exactly where it stopped.
inline constexpr std::size_t kGramTileRows = 4;
inline constexpr std::size_t kGramPanelCols = 128;

// Tile rows x_i[0..kRows) (each already offset to the panel's first column)
// against kVecs vectors of the band from `panel`, over `cols` columns; k_i is
// entry (i0, j) of k. `first` starts the sums at 0.0, else at k's contents.
template <class O, std::size_t kRows, std::size_t kVecs>
inline void gram_tile(const double* const* x_i, const double* panel,
                      std::size_t band, std::size_t cols, double* k_i,
                      std::size_t n, bool first) {
  typename O::vec acc[kRows][kVecs];
  for (std::size_t a = 0; a < kRows; ++a) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[a][v] = first ? O::set1(0.0) : O::load(k_i + a * n + v * O::kWidth);
    }
  }
  for (std::size_t c = 0; c < cols; ++c) {
    typename O::vec xj[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      xj[v] = O::load(panel + c * band + v * O::kWidth);
    }
    for (std::size_t a = 0; a < kRows; ++a) {
      const typename O::vec xi = O::set1(x_i[a][c]);
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[a][v] = O::add(acc[a][v], O::mul(xi, xj[v]));
      }
    }
  }
  for (std::size_t a = 0; a < kRows; ++a) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      O::store(k_i + a * n + v * O::kWidth, acc[a][v]);
    }
  }
}

// Band by band of rows j, panel by panel of columns, every tile of rows i up
// to the band's last j: the upper triangle and the band's diagonal block.
// Then both triangles from the upper one, plus the bias feature's 1.0 * 1.0
// as the last term of every sum.
template <class Ops>
void row_gram(const double* const* rows, std::size_t n, std::size_t p,
              bool bias, double* k) {
  constexpr std::size_t kBand = 2 * Ops::kWidth;
  double panel[kGramPanelCols * kBand];
  for (std::size_t j0 = 0; j0 < n; j0 += kBand) {
    const std::size_t width = n - j0 < kBand ? n - j0 : kBand;
    const std::size_t tile_rows = j0 + width;
    std::size_t c0 = 0;
    do {
      const std::size_t cols =
          p - c0 < kGramPanelCols ? p - c0 : kGramPanelCols;
      for (std::size_t jj = 0; jj < width; ++jj) {
        const double* xj = rows[j0 + jj] + c0;
        for (std::size_t c = 0; c < cols; ++c) panel[c * kBand + jj] = xj[c];
      }
      for (std::size_t i = 0; i < tile_rows; i += kGramTileRows) {
        with_tile_rows<kGramTileRows>(tile_rows - i, [&](auto tile) {
          constexpr std::size_t kRows = decltype(tile)::value;
          const double* x_i[kRows];
          for (std::size_t a = 0; a < kRows; ++a) x_i[a] = rows[i + a] + c0;
          double* k_i = k + i * n + j0;
          if (width == kBand) {
            gram_tile<Ops, kRows, 2>(x_i, panel, kBand, cols, k_i, n, c0 == 0);
            return;
          }
          for_each_block<Ops>(width, [&]<class O>(O, std::size_t jj) {
            gram_tile<O, kRows, 1>(x_i, panel + jj, kBand, cols, k_i + jj, n,
                                   c0 == 0);
          });
        });
      }
      c0 += cols;
    } while (c0 < p);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double s = bias ? k[i * n + j] + 1.0 : k[i * n + j];
      k[i * n + j] = k[j * n + i] = s;
    }
  }
}

// The back-projection's tile: kProjectClasses rows of W by kProjectVecs
// vectors of features, eight independent sums held in registers over every
// row r. A zero feature's term is masked out of its sum (add_nonzero), as
// the scalar entry skips it.
inline constexpr std::size_t kProjectClasses = 2;
inline constexpr std::size_t kProjectVecs = 4;

// Rows c0..c0+kCls of W at features [f, f + kVecs * O::kWidth); `a` points
// at column c0 of the coefficients and `w` at row c0 of W.
template <class O, std::size_t kCls, std::size_t kVecs>
inline void project_tile(const double* const* rows, std::size_t n,
                         std::size_t p, std::size_t f, const double* a,
                         std::size_t ny, double* w) {
  typename O::vec acc[kCls][kVecs];
  for (std::size_t c = 0; c < kCls; ++c) {
    for (std::size_t v = 0; v < kVecs; ++v) acc[c][v] = O::set1(0.0);
  }
  for (std::size_t r = 0; r < n; ++r) {
    typename O::vec x[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      x[v] = O::load(rows[r] + f + v * O::kWidth);
    }
    for (std::size_t c = 0; c < kCls; ++c) {
      const typename O::vec ar = O::set1(a[r * ny + c]);
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[c][v] = O::add_nonzero(acc[c][v], x[v], O::mul(x[v], ar));
      }
    }
  }
  for (std::size_t c = 0; c < kCls; ++c) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      O::store(w + c * p + f + v * O::kWidth, acc[c][v]);
    }
  }
}

template <class Ops>
void back_project(const double* const* rows, std::size_t n, std::size_t p,
                  const double* a, std::size_t ny, double* w, double* b) {
  constexpr std::size_t kStep = kProjectVecs * Ops::kWidth;
  for (std::size_t c = 0; c < ny; c += kProjectClasses) {
    with_tile_rows<kProjectClasses>(ny - c, [&](auto tile) {
      constexpr std::size_t kCls = decltype(tile)::value;
      std::size_t f = 0;
      for (; f + kStep <= p; f += kStep) {
        project_tile<Ops, kCls, kProjectVecs>(rows, n, p, f, a + c, ny,
                                              w + c * p);
      }
      for_each_block<Ops>(p - f, [&]<class O>(O, std::size_t g) {
        project_tile<O, kCls, 1>(rows, n, p, f + g, a + c, ny, w + c * p);
      });
    });
  }
  if (b == nullptr) return;
  for (std::size_t c = 0; c < ny; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) sum += a[r * ny + c];
    b[c] = sum;
  }
}

template <class Ops>
constexpr Kernels kernel_table(Backend backend) noexcept {
  return Kernels{backend,
                 &preadd_nonlin<Ops>,
                 &dprr_block<Ops, Accumulate::kFloat>,
                 &scale_quantize<Ops>,
                 &quant_preadd_nonlin<Ops>,
                 &dprr_block<Ops, Accumulate::kExact>,
                 &batched_bchain<Ops>,
                 &batched_quant_bchain<Ops>,
                 &batched_mask<Ops>,
                 &dprr_lanes<Ops, Accumulate::kFloat>,
                 &dprr_lanes<Ops, Accumulate::kExact>,
                 &row_gram<Ops>,
                 &back_project<Ops>};
}

}  // namespace
}  // namespace dfr::simd
