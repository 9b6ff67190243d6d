// Ablation: optimizer family for the joint (A, B, W, b) training phase under
// the same epoch budget — plain SGD (the paper), momentum, Nesterov, AdaGrad,
// Adam. Learning rates are each family's conventional scale; the step-decay
// schedule is the paper's.
//
// Usage: bench_ablation_optimizer [--datasets ECG,JPVOW] [--cap N]
// Output: console table + ablation_optimizer.csv.
#include <iostream>

#include "bench_common.hpp"
#include "dfr/trainer.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace dfr;
  using namespace dfr::bench;

  CliParser cli("bench_ablation_optimizer", "optimizer family ablation");
  add_scale_options(cli, "JPVOW,CHAR");
  add_csv_option(cli, "ablation_optimizer.csv");
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

  struct Variant {
    OptimizerKind kind;
    double lr;
  };
  const Variant variants[] = {
      {OptimizerKind::kSgd, 1.0},      {OptimizerKind::kMomentum, 0.1},
      {OptimizerKind::kNesterov, 0.1}, {OptimizerKind::kAdaGrad, 0.1},
      {OptimizerKind::kAdam, 0.01},
  };

  ConsoleTable table({"dataset", "optimizer", "lr", "test acc", "final A",
                      "final B", "train time"});
  BenchCsv csv(cli, {"dataset", "optimizer", "lr", "test_acc", "a", "b", "seconds"});

  for (const DatasetSpec& spec : specs) {
    const DatasetPair data = prepare_dataset(spec, options);
    for (const Variant& variant : variants) {
      TrainerConfig config;
      config.nodes = 30;
      config.seed = options.seed;
      config.threads = options.threads;
      config.optimizer = variant.kind;
      config.base_lr_reservoir = variant.lr;
      config.base_lr_output = variant.lr;
      Timer timer;
      const TrainResult model =
          Trainer(config).fit_multistart(data.train, Trainer::default_restarts());
      const double seconds = timer.elapsed_seconds();
      const double acc = evaluate_accuracy(model, data.test);
      table.add_row({spec.id, optimizer_kind_name(variant.kind),
                     fmt_double(variant.lr, 2), fmt_double(acc, 3),
                     fmt_double(model.params.a, 3), fmt_double(model.params.b, 3),
                     fmt_seconds(seconds)});
      csv.add_row({spec.id, optimizer_kind_name(variant.kind),
                   fmt_double(variant.lr, 4), fmt_double(acc, 4),
                   fmt_double(model.params.a, 4), fmt_double(model.params.b, 4),
                   fmt_double(seconds, 3)});
    }
  }
  table.print();
  csv.report();
  return 0;
}
