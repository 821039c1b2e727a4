// Custom parameter-grid sweep.
//
// The paper's tables fix a handful of (U, lambda) points; a designer
// exploring a new platform wants a denser grid.  This example builds a
// custom ExperimentSpec — any utilization x fault-rate grid, any
// scheme list — and runs the whole grid as one flat task queue via
// harness::run_sweep, printing the measured table and the sweep's
// throughput, and optionally writing the machine-readable JSON.
//
// Usage: example_grid_sweep [--runs=N] [--threads=T] [--json=path]
#include <fstream>
#include <iostream>

#include "harness/json_report.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;

  // A grid the paper never printed: utilization from relaxed to
  // saturated, fault rates from benign to hostile, SCP-flavor costs.
  harness::ExperimentSpec spec;
  spec.id = "grid";
  spec.title = "Custom grid: U x lambda under SCP-flavor costs";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.speed_ratio = 2.0;
  spec.util_level = 0;
  spec.schemes = {"Poisson", "A_D", "A_D_S", "A_D_C"};
  for (const double u : {0.70, 0.76, 0.82, 0.88}) {
    for (const double lambda : {2.0e-4, 8.0e-4, 1.4e-3, 2.0e-3}) {
      spec.rows.push_back({u, lambda, {}});
    }
  }

  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 2'000));
  config.threads = static_cast<int>(args.get_int("threads", 0));
  config.seed = 0x5EED'06D1;
  util::ThreadPool::set_shared_size(config.threads);

  const auto sweep = harness::run_sweep({spec}, config);
  const auto& result = sweep.experiments.front();

  std::cout << harness::render_experiment(result) << "\n"
            << "sweep: " << sweep.perf.cells << " cells x " << config.runs
            << " runs on " << sweep.perf.threads << " threads — "
            << sweep.perf.runs_per_second << " runs/s\n";

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << "\n";
      return 1;
    }
    harness::write_sweep_json(sweep, out);
    std::cout << "wrote " << json_path << "\n";
  }

  std::cout << "\nReading: the adaptive schemes hold P near 1.0 deep into\n"
               "the hostile corner of the grid where the Poisson baseline\n"
               "collapses; A_D_S vs A_D_C shows the cost-flavor tradeoff\n"
               "on a grid the paper never tabulated.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(
      argc, argv, {"runs", "threads", "json"}, tool_main);
}
