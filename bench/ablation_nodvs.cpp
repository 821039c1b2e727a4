// Ablation: the paper's §2 schemes *without* DVS (Fig. 3 adapchp-SCP
// and the §2.2 CCP analogue) against the fixed baselines at the same
// fixed speed.  Isolates how much of the headline gain comes from the
// adaptive interval + inner checkpoints alone, and how much from the
// speed scaling of §3.
#include <iostream>

#include "policy/factory.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 6'000));
  config.seed = 0x90D5;
  const int k = static_cast<int>(args.get_int("k", 5));

  std::cout << "=== Ablation: adaptive checkpointing without DVS ===\n"
            << "all schemes pinned to f2 (U measured against f2), SCP "
               "flavor, k=" << k << "\n\n";

  util::TextTable table({"U", "lambda", "Poisson P/E", "k-f-t P/E",
                         "adapchp-SCP P/E", "A_D_S (DVS) P/E"});
  for (const double u : {0.76, 0.80}) {
    for (const double lambda : {1.4e-3, 1.6e-3}) {
      sim::SimSetup setup{
          model::task_from_utilization(u, 2.0, 10'000.0, k),
          model::CheckpointCosts::paper_scp_flavor(),
          model::DvsProcessor::two_speed(2.0),
          model::FaultModel{lambda, false}};
      std::vector<std::string> cells = {util::fmt_fixed(u, 2),
                                        util::fmt_sci(lambda, 1)};
      for (const char* scheme :
           {"Poisson", "k-f-t", "adapchp-SCP", "A_D_S"}) {
        // Fixed-speed schemes run at level 1 (f2); A_D_S chooses.
        const auto stats = sim::run_cell(
            setup, policy::make_policy_factory(scheme, /*level=*/1),
            config);
        cells.push_back(util::fmt_prob(stats.probability()) + " / " +
                        util::fmt_energy(stats.energy()));
      }
      table.add_row(std::move(cells));
    }
  }
  std::cout << table
            << "\nExpected shape: the non-DVS adaptive scheme already\n"
               "beats the fixed baselines' P at the same speed (deadline-\n"
               "aware intervals + cheap inner SCPs); adding DVS (A_D_S)\n"
               "keeps that P while trimming energy via low-speed phases.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(argc, argv, {"runs", "k"}, tool_main);
}
