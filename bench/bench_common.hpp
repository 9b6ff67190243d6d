#pragma once
// Shared helpers for the benchmark harnesses.
//
// Scale model: the paper's evaluation uses the full Bianchi et al. datasets
// (up to 6600 training samples) and reports grid searches of up to ~7 hours.
// The default bench mode caps each split at --cap samples (class-balanced)
// so the entire suite reruns in minutes; --full removes the caps. Shapes
// (T, V, Ny) are never reduced — they are what the memory accounting and the
// compute-scaling claims depend on.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "data/preprocess.hpp"
#include "data/specs.hpp"
#include "data/synth.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace dfr::bench {

struct ScaleOptions {
  bool full = false;
  std::size_t cap = 200;        // per-split sample cap in reduced mode
  std::uint64_t seed = 42;
  std::size_t max_divs = 12;    // grid-escalation bound in reduced mode
  unsigned threads = 0;         // pool slots for sweep stages (0 = all cores,
                                // the ParallelOptions convention)
};

/// --full, --cap, --seed and --datasets: what prepare_dataset and
/// selected_specs read. CliParser prints each default after its help.
inline void add_dataset_options(CliParser& cli,
                                const std::string& default_datasets = "") {
  cli.add_flag("full", "run at full dataset scale (paper sizes; slow)");
  cli.add_option("cap", "per-split sample cap in reduced mode", "200");
  cli.add_option("seed", "master RNG seed", "42");
  cli.add_option("datasets", "comma-separated dataset ids (empty = all 12)",
                 default_datasets);
}

/// The dataset options plus the sweep controls --max-divs and --threads.
inline void add_scale_options(CliParser& cli,
                              const std::string& default_datasets = "") {
  add_dataset_options(cli, default_datasets);
  cli.add_option("max-divs", "grid-escalation bound", "12");
  cli.add_option("threads",
                 "worker threads for grid / feature / restart sweeps "
                 "(0 = all cores; results identical for any value)",
                 "0");
}

/// The fields add_dataset_options registers; the sweep fields keep their
/// defaults.
inline ScaleOptions read_dataset_options(const CliParser& cli) {
  ScaleOptions options;
  options.full = cli.get_flag("full");
  options.cap = cli.get_u64("cap");
  options.seed = cli.get_u64("seed");
  return options;
}

inline ScaleOptions read_scale_options(const CliParser& cli) {
  ScaleOptions options = read_dataset_options(cli);
  options.max_divs = cli.get_u64("max-divs");
  options.threads = static_cast<unsigned>(cli.get_u64("threads"));
  return options;
}

/// The shared `--csv <path>` option: a bench that emits machine-readable
/// rows does so under this one flag name. An empty path disables emission.
inline void add_csv_option(CliParser& cli, const std::string& default_path) {
  cli.add_option("csv", "output CSV path (empty = no CSV)", default_path);
}

/// CSV sink honoring --csv: forwards rows when a path was given, else no-ops.
class BenchCsv {
 public:
  BenchCsv(const CliParser& cli, const std::vector<std::string>& header) {
    const std::string path = cli.get("csv");
    if (!path.empty()) writer_ = std::make_unique<CsvWriter>(path, header);
  }

  void add_row(const std::vector<std::string>& cells) {
    if (writer_) writer_->add_row(cells);
  }

  [[nodiscard]] bool enabled() const noexcept { return writer_ != nullptr; }

  /// Print the standard "CSV written to ..." trailer (no-op when disabled).
  void report() const {
    if (writer_) std::cout << "CSV written to " << writer_->path() << '\n';
  }

 private:
  std::unique_ptr<CsvWriter> writer_;
};

/// The dataset ids selected by --datasets (all 12 when empty).
inline std::vector<DatasetSpec> selected_specs(const CliParser& cli) {
  const std::string arg = cli.get("datasets");
  if (arg.empty()) return evaluation_specs();
  std::vector<DatasetSpec> specs;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::string id = arg.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!id.empty()) {
      const auto spec = find_spec(id);
      if (!spec) throw CliError("unknown dataset id: " + id);
      specs.push_back(*spec);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (specs.empty()) throw CliError("--datasets selected nothing");
  return specs;
}

/// Generate, cap (reduced mode), and standardize one dataset.
inline DatasetPair prepare_dataset(const DatasetSpec& spec,
                                   const ScaleOptions& options) {
  SynthConfig config;
  config.seed = options.seed;
  DatasetSpec sized = spec;
  if (!options.full) {
    sized.train_size = std::min(sized.train_size, options.cap);
    sized.test_size = std::min(sized.test_size, options.cap);
  }
  DatasetPair pair = generate_synthetic(sized, config);
  standardize_pair(pair);
  return pair;
}

}  // namespace dfr::bench
