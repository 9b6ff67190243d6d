// Ablation: truncation window w vs accuracy, training time, and state memory
// (our generalization axis of the paper's Section 3.4; w = 1 is the paper's
// method, w = 0 is full BPTT).
//
// Usage: bench_ablation_truncation [--datasets ECG,JPVOW] [--cap N] [--seed N]
// Output: console table + ablation_truncation.csv.
#include <iostream>

#include "bench_common.hpp"
#include "dfr/memory_model.hpp"
#include "dfr/trainer.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace dfr;
  using namespace dfr::bench;

  CliParser cli("bench_ablation_truncation",
                "truncation window vs accuracy / time / memory");
  // By default two datasets with contrasting series lengths.
  add_scale_options(cli, "JPVOW,ECG");
  add_csv_option(cli, "ablation_truncation.csv");
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
  ScaleOptions options = read_scale_options(cli);

  const std::vector<DatasetSpec> specs = selected_specs(cli);

  const std::size_t windows[] = {1, 2, 4, 8, 16, 0};  // 0 = full BPTT

  ConsoleTable table({"dataset", "window", "test acc", "train time",
                      "state values", "state mem vs full"});
  BenchCsv csv(cli, {"dataset", "window", "test_acc",
                                 "train_seconds", "state_values",
                                 "state_fraction"});

  for (const DatasetSpec& spec : specs) {
    const DatasetPair data = prepare_dataset(spec, options);
    const std::size_t full_states = (data.train.length() + 1) * 30;
    for (std::size_t window : windows) {
      TrainerConfig config;
      config.nodes = 30;
      config.seed = options.seed;
      config.threads = options.threads;
      config.truncation_window = window;
      const Trainer trainer(config);
      Timer timer;
      const TrainResult model =
          trainer.fit_multistart(data.train, Trainer::default_restarts());
      const double seconds = timer.elapsed_seconds();
      const double acc = evaluate_accuracy(model, data.test);
      const double fraction = static_cast<double>(model.stored_state_values) /
                              static_cast<double>(full_states);
      const std::string label = window == 0 ? "full" : std::to_string(window);
      table.add_row({spec.id, label, fmt_double(acc, 3), fmt_seconds(seconds),
                     fmt_count(static_cast<long long>(model.stored_state_values)),
                     fmt_double(fraction * 100.0, 1) + "%"});
      csv.add_row({spec.id, label, fmt_double(acc, 4), fmt_double(seconds, 3),
                   std::to_string(model.stored_state_values),
                   fmt_double(fraction, 5)});
    }
  }
  table.print();
  std::cout << "\n(The paper's method is window=1; expectation: comparable "
               "accuracy to full BPTT at a fraction of state memory and "
               "backward-pass time.)\n";
  csv.report();
  return 0;
}
