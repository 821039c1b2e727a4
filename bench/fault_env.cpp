// Environment-axis sweep with machine-readable perf output.
//
// Runs one utilization/lambda grid under every registered fault
// environment (or a --envs subset) and three adaptive schemes — the
// paper's A_D and A_D_S plus the rate-tracking A_D_S-est — as one
// flat task queue, and writes BENCH_fault_env.json (schema
// adacheck-sweep-v2, one experiment per environment).  CI archives
// the file next to BENCH_sweep.json: together they track both the
// paper-grid throughput and the environment subsystem's cost.
//
// Cell seeds depend only on (row, scheme), so every environment sees
// paired fault-process draws: cross-environment deltas in the report
// are environment effects, not seed noise.
//
// Usage: bench_fault_env [--runs=N] [--seed=S] [--threads=T]
//                        [--out=BENCH_fault_env.json]
//                        [--envs=poisson,bursty-orbit] [--no-perf]
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/json_report.hpp"
#include "harness/sweep.hpp"
#include "model/fault_env.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

/// The base grid: a deadline-pressure column (U) crossed with a fault
/// load column (lambda), compact enough that the full environment
/// cross product stays a smoke-runnable sweep.
adacheck::harness::ExperimentSpec base_spec() {
  adacheck::harness::ExperimentSpec spec;
  spec.id = "fault-env-grid";
  spec.title = "fault environment sweep";
  spec.costs = adacheck::model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.speed_ratio = 2.0;
  spec.util_level = 0;
  spec.schemes = {"A_D", "A_D_S", "A_D_S-est"};
  spec.rows = {
      {0.76, 1.0e-3, {}},
      {0.76, 2.4e-3, {}},
      {0.88, 1.0e-3, {}},
      {0.88, 2.4e-3, {}},
  };
  return spec;
}

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 2'000));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5EED5EED));
  config.threads = static_cast<int>(args.get_int("threads", 0));
  util::ThreadPool::set_shared_size(config.threads);

  std::vector<std::string> envs = model::known_environments();
  const std::string wanted = args.get_string("envs", "");
  if (!wanted.empty()) envs = util::split_csv(wanted);

  std::vector<harness::ExperimentSpec> specs;
  try {
    specs = harness::with_environments({base_spec()}, envs);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  const auto sweep = harness::run_sweep(specs, config);

  harness::JsonReportOptions options;
  options.include_perf = !args.get_bool("no-perf", false);
  const std::string out_path = args.get_string("out", "BENCH_fault_env.json");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open output file: " << out_path << "\n";
    return 1;
  }
  harness::write_sweep_json(sweep, out, options);

  std::cout << "fault-env sweep: " << envs.size() << " environments x "
            << base_spec().rows.size() << " rows x "
            << base_spec().schemes.size() << " schemes, " << config.runs
            << " runs/cell on " << sweep.perf.threads << " threads\n"
            << "wall: " << sweep.perf.wall_seconds << " s, "
            << sweep.perf.runs_per_second << " runs/s\n"
            << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(
      argc, argv,
      {"runs", "seed", "threads", "out", "envs", "no-perf"},
      tool_main);
}
