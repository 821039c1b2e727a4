// Shared main() skeleton for the per-table bench binaries.
//
// Usage: table1 [--runs=N] [--seed=S] [--threads=T] [--csv=path]
//               [--extended] [--validate]
// Prints the paper's values next to ours for every cell, then the
// qualitative shape checks.  Exit code 0 even on shape-check failure
// (benches report; tests assert).
#pragma once

#include <fstream>
#include <iostream>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace adacheck::benchtool {

inline int print_tables(const util::CliArgs& args,
                        const std::vector<harness::ExperimentSpec>& specs) {
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 10'000));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5EED5EED));
  config.threads = static_cast<int>(args.get_int("threads", 0));
  config.validate = args.get_bool("validate", false);
  // Pin the shared pool's worker count too (statistics are identical
  // at any thread count; this only trades wall-clock for cores).
  util::ThreadPool::set_shared_size(config.threads);

  std::ofstream csv_file;
  const std::string csv_path = args.get_string("csv", "");
  if (!csv_path.empty()) {
    csv_file.open(csv_path);
    if (!csv_file) {
      std::cerr << "cannot open csv file: " << csv_path << "\n";
      return 1;
    }
  }

  for (const auto& spec : specs) {
    const auto result = harness::run_experiment(spec, config);
    std::cout << harness::render_experiment(result) << "\n";
    if (args.get_bool("extended", false)) {
      std::cout << harness::render_extended(result) << "\n";
    }
    std::cout << harness::render_shape_checks(harness::shape_checks(result))
              << "\n";
    if (csv_file.is_open()) harness::write_csv(result, csv_file);
  }
  return 0;
}

inline int run_tables(int argc, char** argv,
                      const std::vector<harness::ExperimentSpec>& specs) {
  return util::run_tool(
      argc, argv, {"runs", "seed", "threads", "csv", "extended", "validate"},
      [&](const util::CliArgs& args) { return print_tables(args, specs); });
}

}  // namespace adacheck::benchtool
