// Ablation: modeling knobs the paper leaves implicit (DESIGN.md §3/§4):
//  1. re-planning at every committed CSCP vs only after faults,
//  2. fault exposure during checkpoint operations,
//  3. non-zero rollback cost t_r.
#include <iostream>
#include <memory>

#include "policy/adaptive.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

using namespace adacheck;

sim::SimSetup cell_setup(double utilization, double lambda, int k,
                         double rollback, bool overhead_faults) {
  sim::SimSetup setup{
      model::task_from_utilization(utilization, 1.0, 10'000.0, k),
      model::CheckpointCosts::paper_scp_flavor(),
      model::DvsProcessor::two_speed(2.0),
      model::FaultModel{lambda, overhead_faults}};
  setup.costs.rollback = rollback;
  return setup;
}

sim::CellStats run(const sim::SimSetup& setup, bool recompute_at_commit,
                   const sim::MonteCarloConfig& config) {
  auto policy_config = policy::AdaptiveCheckpointPolicy::adapchp_dvs_scp();
  policy_config.recompute_at_commit = recompute_at_commit;
  return sim::run_cell(
      setup,
      [policy_config] {
        return std::make_unique<policy::AdaptiveCheckpointPolicy>(
            policy_config);
      },
      config);
}

int tool_main(const adacheck::util::CliArgs& args) {
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 4'000));
  config.seed = 0x7B0B;
  const double utilization = args.get_double("utilization", 0.80);
  const double lambda = args.get_double("lambda", 1.6e-3);
  const int k = static_cast<int>(args.get_int("k", 5));

  std::cout << "=== Ablation: modeling knobs (A_D_S, U=" << utilization
            << ", lambda=" << lambda << ", k=" << k << ") ===\n\n";

  util::TextTable table({"recompute@commit", "overhead faults", "t_r",
                         "P", "E", "rollbacks/run"});
  for (const bool recompute : {false, true}) {
    for (const bool overhead : {false, true}) {
      for (const double tr : {0.0, 10.0, 50.0}) {
        const auto setup = cell_setup(utilization, lambda, k, tr, overhead);
        const auto stats = run(setup, recompute, config);
        table.add_row({recompute ? "yes" : "no", overhead ? "yes" : "no",
                       util::fmt_fixed(tr, 0),
                       util::fmt_prob(stats.probability()),
                       util::fmt_energy(stats.energy()),
                       util::fmt_fixed(stats.rollbacks.mean(), 2)});
      }
    }
    table.add_rule();
  }
  std::cout << table
            << "\nExpected shape: overhead-window faults and t_r > 0 cost\n"
               "a little P and E; per-commit re-planning changes little\n"
               "(the paper re-plans only after faults).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(
      argc, argv, {"runs", "utilization", "lambda", "k"}, tool_main);
}
