// Ablation: reservoir representation — DPRR (the paper's choice) vs the
// simpler alternatives it cites (last state, mean state, last+mean). Each
// representation gets the same reservoir parameters (the bp-optimized ones)
// and a ridge readout with the paper's beta sweep.
//
// Usage: bench_ablation_representation [--datasets ...] [--cap N]
// Output: console table + ablation_representation.csv.
#include <iostream>

#include "bench_common.hpp"
#include "dfr/features.hpp"
#include "util/rng.hpp"
#include "dfr/trainer.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dfr;
  using namespace dfr::bench;

  CliParser cli("bench_ablation_representation",
                "DPRR vs simpler reservoir representations");
  add_scale_options(cli, "JPVOW,CHAR,ECG");
  add_csv_option(cli, "ablation_representation.csv");
  try {
    cli.parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << e.what() << '\n' << cli.help_text();
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  const ScaleOptions options = read_scale_options(cli);

  const std::vector<DatasetSpec> specs = selected_specs(cli);

  const RepresentationKind kinds[] = {
      RepresentationKind::kDprr, RepresentationKind::kLastState,
      RepresentationKind::kMeanState, RepresentationKind::kLastAndMean};

  ConsoleTable table(
      {"dataset", "representation", "features", "test acc", "beta"});
  BenchCsv csv(cli, {"dataset", "representation", "features", "test_acc", "beta"});

  for (const DatasetSpec& spec : specs) {
    const DatasetPair data = prepare_dataset(spec, options);

    // Optimize (A, B) once with the paper's method, then swap readouts.
    TrainerConfig config;
    config.nodes = 30;
    config.seed = options.seed;
    config.threads = options.threads;
    const TrainResult model =
        Trainer(config).fit_multistart(data.train, Trainer::default_restarts());
    const ModularReservoir reservoir(config.nodes, model.nonlinearity);

    for (RepresentationKind kind : kinds) {
      const FeatureMatrix train_features = compute_features(
          reservoir, model.params, model.mask, data.train, kind);
      const FeatureMatrix test_features = compute_features(
          reservoir, model.params, model.mask, data.test, kind);

      // beta selection on a validation split of the training features.
      Rng split_rng(options.seed);
      const auto [fit_rows, val_rows] =
          data.train.stratified_split_indices(0.8, split_rng);
      const RidgeSelection selection = select_ridge(
          train_features, fit_rows, val_rows, data.train.num_classes());
      DFR_CHECK_MSG(selection.readout.has_value(),
                    "ridge system is not positive definite");
      const RidgeSweep& sweep = selection.sweep;
      const double acc = evaluate_accuracy(*selection.readout, test_features);

      table.add_row({spec.id, representation_name(kind),
                     std::to_string(representation_dim(kind, config.nodes)),
                     fmt_double(acc, 3), fmt_double(sweep.best().beta, 6)});
      csv.add_row({spec.id, representation_name(kind),
                   std::to_string(representation_dim(kind, config.nodes)),
                   fmt_double(acc, 4), fmt_double(sweep.best().beta, 8)});
    }
  }
  table.print();
  std::cout << "(Expectation per Ikeda et al. TCAD'22: DPRR dominates the "
               "cheaper representations.)\n";
  csv.report();
  return 0;
}
