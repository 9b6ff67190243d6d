// Extension bench: fixed-point word length vs accuracy for the deployed
// (bp-optimized) DFR — the hardware question the DFR literature cares about.
// Sweeps a symmetric Q(i, f) family for the state/feature/weight datapaths.
//
// Usage: bench_quantization [--datasets JPVOW,ECG] [--cap N]
// Output: console table + quantization.csv.
#include <iostream>

#include "bench_common.hpp"
#include "dfr/model_io.hpp"
#include "dfr/trainer.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dfr;
  using namespace dfr::bench;

  CliParser cli("bench_quantization", "fixed-point word length vs accuracy");
  add_scale_options(cli, "JPVOW,ECG");
  add_csv_option(cli, "quantization.csv");
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

  struct Format {
    int int_bits;
    int frac_bits;
  };
  const Format formats[] = {{2, 3},  {2, 5},  {3, 8},
                            {4, 11}, {5, 14}, {6, 19}};

  ConsoleTable table({"dataset", "format", "word bits", "quant acc",
                      "float acc", "acc drop"});
  BenchCsv csv(cli, {"dataset", "int_bits", "frac_bits",
                                 "word_bits", "quant_acc", "float_acc"});

  for (const DatasetSpec& spec : specs) {
    const DatasetPair data = prepare_dataset(spec, options);
    TrainerConfig config;
    config.nodes = 30;
    config.seed = options.seed;
    config.threads = options.threads;
    const TrainResult model =
        Trainer(config).fit_multistart(data.train, Trainer::default_restarts());
    const double float_acc = evaluate_accuracy(model, data.test);

    const std::string path = "bench_quant_model.dfrm";
    save_model(model, path);
    const LoadedModel loaded = load_model(path);
    std::remove(path.c_str());

    for (const Format& format : formats) {
      const FixedPointFormat fmt(format.int_bits, format.frac_bits);
      // Feature accumulator gets 4 extra integer bits (it sums over nodes).
      QuantizedInferenceConfig qconfig{
          fmt, FixedPointFormat(format.int_bits + 4, format.frac_bits), fmt};
      QuantizedDfr qdfr(loaded, qconfig);
      qdfr.calibrate(data.train);
      const double quant_acc = quantized_accuracy(qdfr, data.test);
      table.add_row({spec.id, fmt.to_string(), std::to_string(fmt.word_length()),
                     fmt_double(quant_acc, 3), fmt_double(float_acc, 3),
                     fmt_double(float_acc - quant_acc, 3)});
      csv.add_row({spec.id, std::to_string(format.int_bits),
                   std::to_string(format.frac_bits),
                   std::to_string(fmt.word_length()), fmt_double(quant_acc, 4),
                   fmt_double(float_acc, 4)});
    }
  }
  table.print();
  csv.report();
  return 0;
}
