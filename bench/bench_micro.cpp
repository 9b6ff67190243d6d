// Microbenchmarks (google-benchmark) for the computational claims of paper
// Section 3.4:
//   * BM_BackpropFull vs BM_BackpropTruncated across T — the truncated
//     backward pass is O(Nx^2) regardless of T while full BPTT is O(T Nx^2),
//     i.e. the ~1/T compute reduction the paper states;
//   * forward / DPRR / mask / ridge kernels for profiling context, and
//     BM_ForwardLanes, the lockstep training forward per series by group
//     size;
//   * BM_Kernel, the kernel ledger: every simd::Kernels entry on every
//     backend this host and build can run;
//   * BM_BatchedInfer, one micro-batch through the batched serving engine,
//     per series by batch size, and BM_SingleInfer, one series through the
//     single-series SIMD engine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "data/synth.hpp"
#include "dfr/backprop.hpp"
#include "dfr/output.hpp"
#include "dfr/ridge.hpp"
#include "linalg/cholesky.hpp"
#include "serve/engine.hpp"
#include "serve/simd_kernels.hpp"
#include "serve/synth.hpp"
#include "util/rng.hpp"

namespace {

using namespace dfr;

Matrix random_series(std::size_t t_len, std::size_t channels, std::uint64_t seed) {
  Rng rng(seed);
  Matrix series(t_len, channels);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t v = 0; v < channels; ++v) series(t, v) = rng.normal();
  }
  return series;
}

struct Fixture {
  std::size_t nx = 30;
  ModularReservoir reservoir{30, Nonlinearity{}};
  Mask mask;
  DfrParams params{0.2, 0.3};
  Matrix series;
  OutputLayer output{3, dprr_dim(30)};

  explicit Fixture(std::size_t t_len) : mask(Matrix(1, 1)), series(1, 1) {
    Rng rng(7);
    mask = Mask(nx, 4, MaskKind::kBinary, rng);
    series = random_series(t_len, 4, 11);
    for (std::size_t c = 0; c < output.weights().rows(); ++c) {
      for (std::size_t f = 0; f < output.weights().cols(); ++f) {
        output.mutable_weights()(c, f) = 0.01 * rng.normal();
      }
    }
  }
};

void BM_ForwardFull(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto fwd = run_forward_full(fx.reservoir, fx.params, fx.mask, fx.series);
    benchmark::DoNotOptimize(fwd.dprr.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ForwardFull)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_ForwardTruncated(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto fwd =
        run_forward_truncated(fx.reservoir, fx.params, fx.mask, fx.series, 1);
    benchmark::DoNotOptimize(fwd.dprr.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ForwardTruncated)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

// The lockstep training forward per series: `lanes` ECG-shaped series
// (T = 151, 2 channels) per ForwardLanes::run at window 1 in a forward of
// ForwardLanes::kLanes lanes, as an SGD epoch or a feature pass runs them:
// lanes:8 is a whole group, and lanes 1-4 are the last group of a pass.
// items_per_second counts series-steps, so the lanes:1 row (what
// run_forward_truncated runs) and the group rows compare directly.
void BM_ForwardLanes(benchmark::State& state) {
  constexpr std::size_t kSteps = 151;
  const auto nx = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  const ModularReservoir reservoir(nx, Nonlinearity{});
  const Mask mask(nx, 2, MaskKind::kBinary, rng);
  std::vector<Matrix> series;
  std::vector<const Matrix*> group;
  for (std::size_t l = 0; l < lanes; ++l) {
    series.push_back(random_series(kSteps, 2, 11 + l));
  }
  for (const Matrix& s : series) group.push_back(&s);
  ForwardLanes forward(reservoir, mask, kSteps, 1);
  const DfrParams params{0.2, 0.3};
  for (auto _ : state) {
    forward.run(params, group);
    benchmark::DoNotOptimize(forward.dprr(0).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes * kSteps));
}
BENCHMARK(BM_ForwardLanes)
    ->ArgsProduct(
        {{10, 30, 100},
         {1, 2, 3, 4, static_cast<std::int64_t>(ForwardLanes::kLanes)}})
    ->ArgNames({"nx", "lanes"});

// What serve-fleet's micro-batcher runs: one BatchedEngine::infer over
// `lanes` series (T = 64, V = 2) of a synthetic serving model (Nx = 30) on
// the active backend, float or quantized, on an engine built for 8 lanes,
// serve-fleet's max_batch, as a server worker's scratch serves every batch
// up to max_batch. items_per_second counts series.
template <class Engine>
void run_batched_infer(benchmark::State& state, Engine engine,
                       std::size_t lanes) {
  std::vector<Matrix> series;
  std::vector<const Matrix*> batch;
  for (std::size_t l = 0; l < lanes; ++l) {
    series.push_back(serve::make_synth_series(64, 2, 101 + l));
  }
  for (const Matrix& s : series) batch.push_back(&s);
  for (auto _ : state) {
    engine.infer(batch);
    benchmark::DoNotOptimize(engine.lane_logits(0).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}

void BM_BatchedInfer(benchmark::State& state, bool quantized) {
  static const ModelArtifactPtr artifact =
      serve::make_synth_artifact("bench", serve::SynthModelSpec{});
  constexpr std::size_t kMaxBatch = 8;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  if (quantized) {
    run_batched_infer(state,
                      make_batched_engine(artifact->quantized, kMaxBatch),
                      lanes);
  } else {
    run_batched_infer(state, make_batched_engine(artifact, kMaxBatch), lanes);
  }
}
BENCHMARK_CAPTURE(BM_BatchedInfer, float, false)
    ->ArgName("lanes")->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(8);
BENCHMARK_CAPTURE(BM_BatchedInfer, quant, true)
    ->ArgName("lanes")->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(8);

// What a single-series request runs: one make_simd_engine(...).infer over
// BM_BatchedInfer's first series, on the same model and backend, so a
// batched row's cost per series reads against it from one run.
template <class Engine>
void run_single_infer(benchmark::State& state, Engine engine) {
  const Matrix series = serve::make_synth_series(64, 2, 101);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer(series).data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SingleInfer(benchmark::State& state, bool quantized) {
  static const ModelArtifactPtr artifact =
      serve::make_synth_artifact("bench", serve::SynthModelSpec{});
  if (quantized) {
    run_single_infer(state, make_simd_engine(artifact->quantized));
  } else {
    run_single_infer(state, make_simd_engine(artifact));
  }
}
BENCHMARK_CAPTURE(BM_SingleInfer, float, false);
BENCHMARK_CAPTURE(BM_SingleInfer, quant, true);

void BM_BackpropFull(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto fwd = run_forward_full(fx.reservoir, fx.params, fx.mask, fx.series);
  const auto out = fx.output.backward(fwd.dprr, 1);
  for (auto _ : state) {
    auto grads = backprop_full(fx.reservoir, fx.params, fwd.states, fwd.j,
                               out.dfeatures);
    benchmark::DoNotOptimize(grads);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BackpropFull)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_BackpropTruncated(benchmark::State& state) {
  // The truncated backward pass touches only the last step — its time must
  // be flat in T (compare against BM_BackpropFull: the paper's ~1/T claim).
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto fwd =
      run_forward_truncated(fx.reservoir, fx.params, fx.mask, fx.series, 1);
  const auto out = fx.output.backward(fwd.dprr, 1);
  for (auto _ : state) {
    auto grads = backprop_through_dprr(fx.reservoir, fx.params, fwd.tail_states,
                                       fwd.tail_j, out.dfeatures, 1);
    benchmark::DoNotOptimize(grads);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BackpropTruncated)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_DprrAccumulate(benchmark::State& state) {
  // One step through the accumulator's ring: the state is written into
  // next() and committed, and every kBlockSteps commits run one block.
  const auto nx = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Vector x(nx);
  for (double& v : x) v = rng.normal();
  DprrAccumulator acc(nx);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), acc.next().begin());
    acc.commit();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(acc.features().data());
}
BENCHMARK(BM_DprrAccumulate)->Arg(10)->Arg(30)->Arg(100)->Arg(300);

void BM_MaskApply(benchmark::State& state) {
  Rng rng(5);
  const Mask mask(30, static_cast<std::size_t>(state.range(0)),
                  MaskKind::kBinary, rng);
  Vector input(static_cast<std::size_t>(state.range(0)));
  for (double& v : input) v = rng.normal();
  for (auto _ : state) {
    auto j = mask.apply(input);
    benchmark::DoNotOptimize(j.data());
  }
}
BENCHMARK(BM_MaskApply)->Arg(2)->Arg(13)->Arg(62);

void BM_RidgePrimalVsDual(benchmark::State& state) {
  // range(0): sample count. Below the feature dimension (931) the dual path
  // engages; above it the primal.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  FeatureMatrix fm;
  fm.features.resize(n, dprr_dim(30));
  fm.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < fm.features.cols(); ++f) {
      fm.features(i, f) = rng.normal();
    }
    fm.labels[i] = static_cast<int>(i % 3);
  }
  for (auto _ : state) {
    auto layer = fit_ridge(fm, 3, 1e-4);
    benchmark::DoNotOptimize(layer.weights().data());
  }
}
BENCHMARK(BM_RidgePrimalVsDual)->Arg(100)->Arg(400)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_CholeskyFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  Matrix base(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) base(r, c) = rng.normal();
  }
  const Matrix spd = gram_at_a(base, 1.0);
  for (auto _ : state) {
    auto l = cholesky_factor(spd);
    benchmark::DoNotOptimize(l->data());
  }
}
BENCHMARK(BM_CholeskyFactor)->Arg(64)->Arg(256)->Arg(931)
    ->Unit(benchmark::kMillisecond);

// ---- kernel ledger -----------------------------------------------------------
// One row per simd::Kernels entry x available backend x shape, named
// BM_Kernel/<entry>/<backend>/nx:<Nx>[/lanes:<lanes>][/steps:<steps>]. Each
// iteration is the call one reservoir step makes, or for the DPRR block
// entries the call one block of `steps` steps makes: single-series entries
// at Nx in {10, 30, 100, 300}, the block entries at steps 1 and
// DprrAccumulator::kBlockSteps, the lane step entries at Nx in {10, 30, 100}
// over lanes in {1, 3, 4, 8, 16}, and the lane block entries at Nx in
// {10, 30, 100} over lanes in {3, 8} at steps 1 and SoaStep::kBlockSteps.
// The lane entries read and write their state blocks on 64-byte-aligned
// operands, as the lane set (SoaStep) keeps them.
// items_per_second counts series-steps, so every row compares directly. The
// ridge products run at ECG's dual shapes instead, one call per iteration:
// BM_Kernel/<entry>/<backend>/n:<N>/p:932 over N in
// {80, 100} rows (the fit rows and all rows of select_ridge) of 931 features
// plus the bias feature, with Ny = 2 for back_project.

/// Random operands for one call at (nx, lanes, steps); state buffers are SoA
/// (nx * lanes), `states` holds steps + 1 SoA blocks of nx * lanes, and r is
/// the DPRR accumulator of every lane (dprr_dim(nx) * lanes).
struct KernelBuffers {
  static constexpr std::size_t kChannels = 2;
  std::size_t nx, lanes, steps;
  Nonlinearity f;  // the default kind, as in the synthetic serving models
  FixedPointFormat fmt{4, 11};
  Vector j, x_prev, out, r, weights, u, states;

  KernelBuffers(std::size_t nodes, std::size_t lane_count,
                std::size_t step_count)
      : nx(nodes),
        lanes(lane_count),
        steps(step_count),
        j(random_vector(nodes * lane_count, 1)),
        x_prev(random_vector(nodes * lane_count, 2)),
        out(nodes * lane_count, 0.0),
        r(dprr_dim(nodes) * lane_count + kLineDoubles, 0.0),
        weights(random_vector(nodes * kChannels, 4)),
        u(random_vector(kChannels * lane_count, 5)),
        states(random_vector(
            (step_count + 1) * nodes * lane_count + kLineDoubles, 6)) {}

  static Vector random_vector(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    Vector v(n);
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    return v;
  }

  /// `v` from its first 64-byte line, as the lane set keeps its ring and r;
  /// the buffers above hold the spare doubles for it.
  static double* line_aligned(Vector& v) {
    const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
    return v.data() + (-addr % 64) / sizeof(double);
  }
  static constexpr std::size_t kLineDoubles = 64 / sizeof(double);
};

/// One Kernels entry: runs its call and returns the buffer it wrote.
struct LedgerEntry {
  enum class Shape { kSingle, kBlock, kLaneStep, kLaneBlock };
  const char* name;
  Shape shape;
  double* (*run)(const simd::Kernels& k, KernelBuffers& b);
};

constexpr double kA = 0.5;
constexpr double kB = 0.3;
using Shape = LedgerEntry::Shape;

const LedgerEntry kLedger[] = {
    {"preadd_nonlin", Shape::kSingle,
     [](const simd::Kernels& k, KernelBuffers& b) {
       k.preadd_nonlin(b.f, kA, b.j.data(), b.x_prev.data(), b.out.data(),
                       b.nx);
       return b.out.data();
     }},
    {"dprr_block", Shape::kBlock,
     [](const simd::Kernels& k, KernelBuffers& b) {
       k.dprr_block(b.r.data(), b.states.data(), b.steps, b.nx);
       return b.r.data();
     }},
    {"scale_quantize", Shape::kSingle,
     [](const simd::Kernels& k, KernelBuffers& b) {
       k.scale_quantize(b.fmt, 1.0, b.j.data(), b.nx);
       return b.j.data();
     }},
    {"quant_preadd_nonlin", Shape::kSingle,
     [](const simd::Kernels& k, KernelBuffers& b) {
       k.quant_preadd_nonlin(b.f, kA, b.fmt, b.j.data(), b.x_prev.data(),
                             b.out.data(), b.nx);
       return b.out.data();
     }},
    {"dprr_block_exact", Shape::kBlock,
     [](const simd::Kernels& k, KernelBuffers& b) {
       k.dprr_block_exact(b.r.data(), b.states.data(), b.steps, b.nx);
       return b.r.data();
     }},
    {"lane_step", Shape::kLaneStep,
     [](const simd::Kernels& k, KernelBuffers& b) {
       double* x_prev = KernelBuffers::line_aligned(b.states);
       double* x = x_prev + b.nx * b.lanes;
       k.lane_step(b.f, kA, kB, b.weights.data(), KernelBuffers::kChannels,
                   b.u.data(), x_prev, b.j.data(), x, b.nx, b.lanes);
       return x;
     }},
    {"lane_quant_step", Shape::kLaneStep,
     [](const simd::Kernels& k, KernelBuffers& b) {
       double* x_prev = KernelBuffers::line_aligned(b.states);
       double* x = x_prev + b.nx * b.lanes;
       k.lane_quant_step(b.f, kA, kB, b.fmt, 1.0, b.weights.data(),
                         KernelBuffers::kChannels, b.u.data(), x_prev,
                         b.j.data(), x, b.nx, b.lanes);
       return x;
     }},
    {"dprr_lanes", Shape::kLaneBlock,
     [](const simd::Kernels& k, KernelBuffers& b) {
       double* r = KernelBuffers::line_aligned(b.r);
       k.dprr_lanes(r, KernelBuffers::line_aligned(b.states), b.steps, b.nx,
                    b.lanes);
       return r;
     }},
    {"dprr_lanes_exact", Shape::kLaneBlock,
     [](const simd::Kernels& k, KernelBuffers& b) {
       double* r = KernelBuffers::line_aligned(b.r);
       k.dprr_lanes_exact(r, KernelBuffers::line_aligned(b.states), b.steps,
                          b.nx, b.lanes);
       return r;
     }},
};

/// Operands of the ridge products at one of ECG's dual shapes: n rows of
/// dprr_dim(30) = 931 features, read in place with the bias feature, and
/// Ny = 2 coefficients per row.
struct RidgeBuffers {
  static constexpr std::size_t kFeatures = 931;
  static constexpr std::size_t kClasses = 2;
  std::size_t n;
  Vector x, alpha, k, w, b;
  std::vector<const double*> rows;

  explicit RidgeBuffers(std::size_t row_count)
      : n(row_count),
        x(KernelBuffers::random_vector(row_count * kFeatures, 7)),
        alpha(KernelBuffers::random_vector(row_count * kClasses, 8)),
        k(row_count * row_count),
        w(kClasses * kFeatures),
        b(kClasses),
        rows(row_count) {
    for (std::size_t i = 0; i < n; ++i) rows[i] = x.data() + i * kFeatures;
  }
};

struct RidgeLedgerEntry {
  const char* name;
  double* (*run)(const simd::Kernels& k, RidgeBuffers& b);
};

const RidgeLedgerEntry kRidgeLedger[] = {
    {"row_gram",
     [](const simd::Kernels& k, RidgeBuffers& b) {
       k.row_gram(b.rows.data(), b.n, RidgeBuffers::kFeatures, true,
                  b.k.data());
       return b.k.data();
     }},
    {"back_project",
     [](const simd::Kernels& k, RidgeBuffers& b) {
       k.back_project(b.rows.data(), b.n, RidgeBuffers::kFeatures,
                      b.alpha.data(), RidgeBuffers::kClasses, b.w.data(),
                      b.b.data());
       return b.w.data();
     }},
};

void register_kernel_ledger() {
  for (simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon,
        simd::Backend::kAvx512}) {
    if (!simd::backend_available(backend)) continue;
    for (const LedgerEntry& entry : kLedger) {
      const auto add = [&entry, backend](std::size_t nx, std::size_t lanes,
                                         std::size_t steps) {
        std::string name = std::string("BM_Kernel/") + entry.name + "/" +
                           simd::backend_name(backend) +
                           "/nx:" + std::to_string(nx);
        if (entry.shape == Shape::kLaneStep ||
            entry.shape == Shape::kLaneBlock) {
          name += "/lanes:" + std::to_string(lanes);
        }
        if (entry.shape == Shape::kBlock || entry.shape == Shape::kLaneBlock) {
          name += "/steps:" + std::to_string(steps);
        }
        const auto run = [&entry, backend, nx, lanes,
                          steps](benchmark::State& state) {
          const simd::Kernels& kernels = simd::kernels_for(backend);
          KernelBuffers buffers(nx, lanes, steps);
          for (auto _ : state) {
            benchmark::DoNotOptimize(entry.run(kernels, buffers));
            benchmark::ClobberMemory();
          }
          state.SetItemsProcessed(state.iterations() *
                                  static_cast<std::int64_t>(lanes * steps));
        };
        benchmark::RegisterBenchmark(name.c_str(), run);
      };
      for (std::size_t nx : {10, 30, 100, 300}) {
        switch (entry.shape) {
          case Shape::kSingle:
            add(nx, 1, 1);
            break;
          case Shape::kBlock:
            add(nx, 1, 1);
            add(nx, 1, DprrAccumulator::kBlockSteps);
            break;
          case Shape::kLaneStep:
            if (nx != 300) {
              for (std::size_t lanes : {1, 3, 4, 8, 16}) add(nx, lanes, 1);
            }
            break;
          case Shape::kLaneBlock:
            if (nx != 300) {
              for (std::size_t lanes : {3, 8}) {
                add(nx, lanes, 1);
                add(nx, lanes, SoaStep::kBlockSteps);
              }
            }
            break;
        }
      }
    }
    for (const RidgeLedgerEntry& entry : kRidgeLedger) {
      for (std::size_t n : {80, 100}) {
        const std::string name = std::string("BM_Kernel/") + entry.name +
                                 "/" + simd::backend_name(backend) +
                                 "/n:" + std::to_string(n) + "/p:" +
                                 std::to_string(RidgeBuffers::kFeatures + 1);
        const auto run = [&entry, backend, n](benchmark::State& state) {
          const simd::Kernels& kernels = simd::kernels_for(backend);
          RidgeBuffers buffers(n);
          for (auto _ : state) {
            benchmark::DoNotOptimize(entry.run(kernels, buffers));
            benchmark::ClobberMemory();
          }
        };
        benchmark::RegisterBenchmark(name.c_str(), run)
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_ledger();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
