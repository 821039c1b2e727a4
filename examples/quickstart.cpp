// Quickstart: simulate one energy-constrained real-time task under the
// paper's adaptive checkpointing schemes and print what happened.
//
//   ./quickstart [--utilization=0.8] [--lambda=1.4e-3] [--k=5]
//                [--runs=2000]
//
// Walks through the three layers of the library:
//   1. model   — describe the task, platform, costs, and fault process
//   2. policy  — pick a checkpointing scheme
//   3. sim     — run one traced execution, then a Monte-Carlo cell
#include <iostream>

#include "analytic/dvs_estimate.hpp"
#include "policy/factory.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  const double utilization = args.get_double("utilization", 0.80);
  const double lambda = args.get_double("lambda", 1.4e-3);
  const int k = static_cast<int>(args.get_int("k", 5));
  const int runs = static_cast<int>(args.get_int("runs", 2'000));

  // 1. Model: a job of N = U*D cycles against deadline D = 10000 on a
  //    two-speed DVS processor (f1 = 1, f2 = 2), DMR with SCP-flavor
  //    checkpoint costs, transient faults at rate lambda.
  sim::SimSetup setup{
      model::task_from_utilization(utilization, 1.0, 10'000.0, k),
      model::CheckpointCosts::paper_scp_flavor(),
      model::DvsProcessor::two_speed(2.0),
      model::FaultModel{lambda, false}};

  std::cout << "Task: N=" << setup.task.cycles << " cycles, D="
            << setup.task.deadline << ", k=" << k << ", lambda=" << lambda
            << "\n";
  const double t_est_low = analytic::dvs_time_estimate(
      setup.task.cycles, 1.0, setup.costs.cscp(), lambda);
  std::cout << "Fault-aware completion estimate at f1: " << t_est_low
            << (t_est_low <= setup.task.deadline ? "  (fits: start slow)"
                                                 : "  (misses: start fast)")
            << "\n\n";

  // 2+3a. One traced run of the paper's A_D_S scheme.
  auto policy = policy::make_policy("A_D_S");
  sim::EngineConfig engine_config;
  engine_config.record_trace = true;
  const auto run = sim::simulate_seeded(setup, *policy, /*seed=*/2006,
                                        engine_config);
  std::cout << "One seeded run of " << policy->name() << ": "
            << to_string(run.outcome) << " at t=" << run.finish_time
            << ", energy=" << run.energy << ", faults=" << run.faults
            << ", rollbacks=" << run.rollbacks << "\n";
  std::cout << "Checkpoints placed: " << run.checkpoints_scp << " SCP, "
            << run.checkpoints_ccp << " CCP, " << run.checkpoints_cscp
            << " CSCP; speed switches: " << run.speed_switches << "\n";
  if (run.faults > 0) {
    std::cout << "\nTrace excerpt (first 12 events):\n";
    sim::Trace excerpt;
    for (std::size_t i = 0; i < run.trace.size() && i < 12; ++i) {
      const auto& e = run.trace.events()[i];
      excerpt.push(e.kind, e.time, e.value, e.aux);
    }
    std::cout << excerpt.to_string();
  }

  // 3b. Monte-Carlo comparison of all schemes on this cell.
  std::cout << "\nMonte-Carlo (" << runs << " runs/cell):\n";
  util::TextTable table(
      {"scheme", "P(timely)", "E(success)", "faults/run", "rollbacks/run"});
  sim::MonteCarloConfig config;
  config.runs = runs;
  for (const auto& name : policy::known_policies()) {
    const auto stats =
        sim::run_cell(setup, policy::make_policy_factory(name), config);
    table.add_row({name, util::fmt_prob(stats.probability()),
                   util::fmt_energy(stats.energy()),
                   util::fmt_fixed(stats.faults.mean(), 2),
                   util::fmt_fixed(stats.rollbacks.mean(), 2)});
  }
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(
      argc, argv, {"utilization", "lambda", "k", "runs"}, tool_main);
}
