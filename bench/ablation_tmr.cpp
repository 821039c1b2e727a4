// Extension experiment: DMR vs TMR (the paper's "other task duplication
// systems" future work, following its ref [5] which analyzes both).
//
// Re-runs the Table 1(a)/(b) grids with a third replica: single faults
// are then majority-voted away at comparisons instead of forcing a
// rollback.  Expected shape: TMR lifts the fixed baselines' completion
// probability dramatically (their whole weakness was rollback storms)
// and lets the adaptive schemes hold P with fewer inner checkpoints;
// per-replica energy changes little (the third replica's energy is a
// constant platform factor, reported separately by the harness note).
#include <iostream>

#include "harness/experiment.hpp"
#include "policy/factory.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 4'000));
  config.seed = 0x73311;

  std::cout << "=== Extension: DMR vs TMR on the Table 1(a) grid ===\n"
            << "(SCP flavor, baselines at f1, k = 5; energy is per "
               "replica)\n\n";

  util::TextTable table({"U", "lambda", "scheme", "DMR P", "DMR E",
                         "TMR P", "TMR E", "TMR corrections/run"});
  for (const double u : {0.76, 0.80}) {
    for (const double lambda : {1.4e-3, 1.6e-3}) {
      for (const char* scheme : {"Poisson", "k-f-t", "A_D", "A_D_S"}) {
        sim::SimSetup setup{
            model::task_from_utilization(u, 1.0, 10'000.0, 5),
            model::CheckpointCosts::paper_scp_flavor(),
            model::DvsProcessor::two_speed(2.0),
            model::FaultModel{lambda, false, 2}};
        const auto dmr = sim::run_cell(
            setup, policy::make_policy_factory(scheme), config);
        setup.fault_model.processors = 3;
        const auto tmr = sim::run_cell(
            setup, policy::make_policy_factory(scheme), config);
        table.add_row({util::fmt_fixed(u, 2), util::fmt_sci(lambda, 1),
                       scheme, util::fmt_prob(dmr.probability()),
                       util::fmt_energy(dmr.energy()),
                       util::fmt_prob(tmr.probability()),
                       util::fmt_energy(tmr.energy()),
                       util::fmt_fixed(tmr.corrections.mean(), 2)});
      }
      table.add_rule();
    }
  }
  std::cout << table
            << "\nExpected shape: TMR rescues the fixed baselines (single\n"
               "faults no longer cost re-execution) and narrows the gap to\n"
               "the adaptive schemes; A_D_S still wins on energy because\n"
               "it can stay at the low speed longer.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(argc, argv, {"runs"}, tool_main);
}
