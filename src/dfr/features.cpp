#include "dfr/features.hpp"

#include <algorithm>

#include "dfr/backprop.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace dfr {

FeatureMatrix compute_features(const ModularReservoir& reservoir,
                               const DfrParams& params, const Mask& mask,
                               const Dataset& dataset,
                               RepresentationKind representation,
                               unsigned threads) {
  DFR_CHECK(!dataset.empty());
  const std::size_t n = dataset.size();
  const std::size_t dim = representation_dim(representation, reservoir.nodes());

  FeatureMatrix out;
  out.features.resize(n, dim);
  out.labels.resize(n);

  if (representation == RepresentationKind::kDprr) {
    // Streaming path: the DPRR accumulator needs only (x(k), x(k-1)), so no
    // (T+1) x Nx trajectory is materialized. Samples run in lockstep groups
    // of kLanes consecutive rows (the last group may be short), and each
    // worker drives one reusable ForwardLanes over a contiguous run of whole
    // groups. Row i is a pure function of sample i, so any grouping / thread
    // count yields a bit-identical matrix (see for_each_with_engine in
    // serve/engine.hpp).
    constexpr std::size_t kLanes = ForwardLanes::kLanes;
    const double time_scale = dprr_time_scale(dataset.length());
    for_each_with_engine(
        (n + kLanes - 1) / kLanes, threads,
        [&] {
          return ForwardLanes(reservoir, mask, dataset.length(), /*window=*/0);
        },
        [&](ForwardLanes& forward, std::size_t group) {
          const std::size_t first = group * kLanes;
          const std::size_t lanes = std::min(kLanes, n - first);
          const Matrix* series[kLanes];
          for (std::size_t l = 0; l < lanes; ++l) {
            series[l] = &dataset[first + l].series;
          }
          forward.run(params, std::span<const Matrix* const>(series, lanes));
          for (std::size_t l = 0; l < lanes; ++l) {
            // The time-averaged DPRR (see dprr.hpp), as FloatDatapath
            // finalizes it.
            const Vector& r = forward.dprr(l);
            const std::span<double> row = out.features.row(first + l);
            for (std::size_t f = 0; f < dim; ++f) row[f] = r[f] * time_scale;
            out.labels[first + l] = dataset[first + l].label;
          }
        });
    return out;
  }

  // Trajectory path for the comparison representations (last/mean need whole-
  // trajectory reductions that the ablations keep in their published form).
  // Each index owns exactly row i of the output, so any thread count yields
  // a bit-identical matrix.
  parallel_for(
      n,
      [&](std::size_t i) {
        const Sample& sample = dataset[i];
        const Matrix states = reservoir.run_series(mask, sample.series, params);
        const Vector r = compute_representation(representation, states);
        out.features.set_row(i, r);
        out.labels[i] = sample.label;
      },
      {.threads = threads});
  return out;
}

Matrix one_hot(const std::vector<int>& labels, int num_classes) {
  Matrix d(labels.size(), static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    DFR_CHECK(labels[i] >= 0 && labels[i] < num_classes);
    d(i, static_cast<std::size_t>(labels[i])) = 1.0;
  }
  return d;
}

}  // namespace dfr
