// Ablation: DVS speed ratio f2/f1 (DESIGN.md §4).
//
// The paper fixes f2 = 2*f1.  This bench sweeps the ratio and reports
// the P/E tradeoff of the DVS schemes on the Table 1(a) cell: a slower
// high speed saves energy per cycle but leaves less recovery slack.
#include <iostream>

#include "model/speed.hpp"
#include "policy/factory.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 4'000));
  config.seed = 0x5BEED;
  const double utilization = args.get_double("utilization", 0.80);
  const double lambda = args.get_double("lambda", 1.4e-3);
  const int k = static_cast<int>(args.get_int("k", 5));

  std::cout << "=== Ablation: speed ratio f2/f1 ===\n"
            << "cell: U=" << utilization << " (at f1), lambda=" << lambda
            << " k=" << k << ", V^2 = 4*f\n\n";

  util::TextTable table({"f2/f1", "A_D P", "A_D E", "A_D_S P", "A_D_S E",
                         "A_D_S hi-cycles"});
  for (const double ratio : {1.25, 1.5, 1.75, 2.0, 2.5, 3.0}) {
    sim::SimSetup setup{
        model::task_from_utilization(utilization, 1.0, 10'000.0, k),
        model::CheckpointCosts::paper_scp_flavor(),
        model::DvsProcessor::two_speed(ratio),
        model::FaultModel{lambda, false}};
    const auto ad =
        sim::run_cell(setup, policy::make_policy_factory("A_D"), config);
    const auto ads =
        sim::run_cell(setup, policy::make_policy_factory("A_D_S"), config);
    table.add_row({util::fmt_fixed(ratio, 2),
                   util::fmt_prob(ad.probability()),
                   util::fmt_energy(ad.energy()),
                   util::fmt_prob(ads.probability()),
                   util::fmt_energy(ads.energy()),
                   util::fmt_energy(ads.high_speed_cycles.mean())});
  }
  std::cout << table
            << "\nExpected shape: tiny ratios cannot absorb faults (P\n"
               "drops); large ratios restore P at higher energy; A_D_S\n"
               "dominates A_D throughout.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(
      argc, argv, {"runs", "utilization", "lambda", "k"}, tool_main);
}
