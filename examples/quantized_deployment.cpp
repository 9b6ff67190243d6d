// Deployment walk-through: train -> save -> load -> quantize -> classify.
// Shows the model-serialization API and the fixed-point inference datapath a
// hardware implementation would use, including the accuracy cost of three
// candidate word lengths.
//
//   ./examples/quantized_deployment [--seed 42]
#include <cstdio>
#include <iostream>

#include "data/preprocess.hpp"
#include "data/synth.hpp"
#include "dfr/model_io.hpp"
#include "dfr/trainer.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "serve/engine.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dfr;
  CliParser cli("quantized_deployment", "train, serialize, quantize, classify");
  cli.add_option("seed", "RNG seed", "42");
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
  const auto seed = cli.get_u64("seed");

  DatasetPair data = generate_toy_task(3, 2, 50, 20, 20, 0.6, seed);
  standardize_pair(data);

  // 1. Train with the paper's protocol.
  TrainerConfig config;
  config.seed = seed;
  const TrainResult model =
      Trainer(config).fit_multistart(data.train, Trainer::default_restarts());
  const double float_acc = evaluate_accuracy(model, data.test);
  std::cout << "float model: A=" << model.params.a << " B=" << model.params.b
            << "  test acc=" << float_acc << '\n';

  // 2. Serialize and reload (what ships to the device).
  const std::string path = "deployed_model.dfrm";
  save_model(model, path);
  const LoadedModel loaded = load_model(path);
  std::cout << "saved+loaded " << path << " (beta=" << loaded.chosen_beta
            << ")\n\n";

  // 3. Quantized inference at three word lengths.
  std::cout << "fixed-point sweep (state/weight format; features +4 int bits):\n";
  for (const auto& [ib, fb] : {std::pair{2, 5}, {3, 8}, {4, 11}}) {
    const FixedPointFormat fmt(ib, fb);
    QuantizedInferenceConfig qconfig{fmt, FixedPointFormat(ib + 4, fb), fmt};
    QuantizedDfr qdfr(loaded, qconfig);
    qdfr.calibrate(data.train);  // pick binary-point positions from data
    std::printf("  %-12s -> test acc %.3f (float %.3f)\n",
                fmt.to_string().c_str(), quantized_accuracy(qdfr, data.test),
                float_acc);
  }

  // 4. Classify one sample end to end. classify() wraps a single infer()
  // (one reservoir run produces the logits behind both the class and the
  // probabilities).
  const Sample& sample = data.test[0];
  std::cout << "\nsingle-sample inference: true class " << sample.label
            << ", float model says " << loaded.classify(sample.series) << '\n';

  // 5. Sustained serving: a streaming engine reuses its scratch across calls
  // (zero steady-state allocations), and classify_batch fans a whole batch
  // over the thread pool with deterministic output order. make_simd_engine
  // and classify_batch both run the SIMD datapath on the active backend
  // (the best one the CPU supports unless DFR_SIMD overrides it), so the
  // per-series loop and the batch agree exactly.
  SimdInferenceEngine engine = make_simd_engine(loaded);
  std::size_t agree = 0;
  for (const Sample& s : data.test.samples()) {
    if (engine.classify(s.series) == s.label) ++agree;
  }
  const std::vector<int> batched = classify_batch(loaded, data.test, /*threads=*/0);
  std::size_t batch_agree = 0;
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (batched[i] == data.test[i].label) ++batch_agree;
  }
  std::cout << "engine over test split: " << agree << "/" << data.test.size()
            << " correct; classify_batch agrees: "
            << (batch_agree == agree ? "yes" : "NO") << '\n';

  // 6. Quantized serving on the SIMD datapath. Unlike the float family's
  // ULP contract, the quantized SIMD kernels are bit-identical to the
  // scalar fixed-point pipeline (make_engine, the reference) on every
  // backend, so the backend changes latency only — verify the contract on
  // the whole split.
  QuantizedDfr qdfr(loaded, QuantizedInferenceConfig{});
  qdfr.calibrate(data.train);
  SimdQuantizedInferenceEngine quant_engine = make_simd_engine(qdfr);
  QuantizedInferenceEngine quant_scalar = make_engine(qdfr);  // scratch reused
  std::size_t identical = 0;
  for (const Sample& s : data.test.samples()) {
    if (quant_engine.classify(s.series) == quant_scalar.classify(s.series)) {
      ++identical;
    }
  }
  std::cout << "quantized SIMD ("
            << simd::backend_name(quant_engine.datapath().backend())
            << ") vs scalar fixed-point: " << identical << "/"
            << data.test.size() << " identical labels"
            << (identical == data.test.size() ? "" : " — CONTRACT VIOLATION")
            << '\n';
  std::remove(path.c_str());
  return 0;
}
