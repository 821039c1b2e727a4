// Ablation: checkpoint cost asymmetry (DESIGN.md §4).
//
// The paper's two flavors (t_s = 2/t_cp = 20 vs t_s = 20/t_cp = 2) pick
// which inner checkpoint type pays off.  This bench sweeps the t_s:t_cp
// split at constant c = t_s + t_cp = 22 and runs A_D_S vs A_D_C vs A_D
// on the Table 1(a) cell, locating the crossover.
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "policy/factory.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 4'000));
  config.seed = 0xC057;
  const double utilization = args.get_double("utilization", 0.76);
  const double lambda = args.get_double("lambda", 1.4e-3);
  const int k = static_cast<int>(args.get_int("k", 5));

  std::cout << "=== Ablation: t_s vs t_cp split at constant c = 22 ===\n"
            << "cell: U=" << utilization << " lambda=" << lambda
            << " k=" << k << " D=10000, baselines' util level f1\n\n";

  util::TextTable table({"t_s", "t_cp", "A_D P/E", "A_D_S P/E", "A_D_C P/E",
                         "winner(E)"});
  for (const double ts : {1.0, 2.0, 5.0, 11.0, 17.0, 20.0, 21.0}) {
    const double tcp = 22.0 - ts;
    auto processor = model::DvsProcessor::two_speed(2.0);
    sim::SimSetup setup{
        model::task_from_utilization(utilization, 1.0, 10'000.0, k),
        model::CheckpointCosts{ts, tcp, 0.0}, std::move(processor),
        model::FaultModel{lambda, false}};

    std::string cells[3];
    double energies[3] = {0, 0, 0};
    const char* names[3] = {"A_D", "A_D_S", "A_D_C"};
    for (int i = 0; i < 3; ++i) {
      const auto stats =
          sim::run_cell(setup, policy::make_policy_factory(names[i]), config);
      cells[i] = util::fmt_prob(stats.probability()) + " / " +
                 util::fmt_energy(stats.energy());
      energies[i] = stats.energy();
    }
    const char* winner =
        energies[1] < energies[2]
            ? (energies[1] < energies[0] ? "A_D_S" : "A_D")
            : (energies[2] < energies[0] ? "A_D_C" : "A_D");
    table.add_row({util::fmt_fixed(ts, 0), util::fmt_fixed(tcp, 0), cells[0],
                   cells[1], cells[2], winner});
  }
  std::cout << table
            << "\nExpected shape: cheap stores favor extra SCPs, cheap\n"
               "compares favor extra CCPs; both dominate plain A_D.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(
      argc, argv, {"runs", "utilization", "lambda", "k"}, tool_main);
}
