// Mixed-criticality control task set on one DMR computer (scheduling
// substrate demo).
//
// Three periodic tasks — attitude control, navigation fusion, and
// telemetry packing — share the processor under a non-preemptive EDF
// executive.  Jobs are checkpointed per the paper's schemes.  The
// example first runs the analytic admission check (fault-aware
// effective utilization + non-preemptive blocking), then simulates a
// long window and reports per-task deadline-miss ratios and energy
// under three policy assignments.
#include <iostream>

#include "sched/executive.hpp"
#include "sched/taskset.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  const double horizon = args.get_double("horizon", 400'000.0);
  const double lambda = args.get_double("lambda", 1.2e-3);

  auto make_set = [](const char* policy) {
    sched::TaskSet set;
    sched::PeriodicTask attitude;
    attitude.name = "attitude";
    attitude.cycles = 2'600.0;
    attitude.period = 10'000.0;
    attitude.relative_deadline = 6'000.0;
    attitude.fault_tolerance = 4;
    attitude.policy = policy;
    sched::PeriodicTask navigation;
    navigation.name = "navigation";
    navigation.cycles = 3'000.0;
    navigation.period = 20'000.0;
    navigation.fault_tolerance = 4;
    navigation.policy = policy;
    sched::PeriodicTask telemetry;
    telemetry.name = "telemetry";
    telemetry.cycles = 4'000.0;
    telemetry.period = 40'000.0;
    telemetry.phase = 5'000.0;
    telemetry.fault_tolerance = 4;
    telemetry.policy = policy;
    set.tasks = {attitude, navigation, telemetry};
    return set;
  };

  const auto set = make_set("A_D_S");
  std::cout << "=== Control task set on one DMR computer ===\n"
            << "lambda = " << lambda << ", horizon = " << horizon << "\n\n";
  std::cout << "Admission analysis (f1):\n"
            << "  raw utilization       = " << set.utilization(1.0) << "\n"
            << "  effective (fault-aware) = "
            << sched::effective_utilization(set, 1.0, 22.0, lambda) << "\n";
  const auto blocking = sched::blocking_estimates(set, 1.0, 22.0, lambda);
  for (std::size_t i = 0; i < set.tasks.size(); ++i) {
    std::cout << "  " << set.tasks[i].name
              << ": worst-case blocking ~ " << util::fmt_fixed(blocking[i], 0)
              << " of deadline " << set.tasks[i].deadline() << "\n";
  }
  std::cout << "\n";

  util::TextTable table({"policy", "task", "released", "completed",
                         "miss ratio", "mean response", "energy"});
  for (const char* policy : {"k-f-t", "A_D", "A_D_S"}) {
    const auto policy_set = make_set(policy);
    sched::ExecutiveConfig config;
    config.horizon = horizon;
    config.costs = model::CheckpointCosts::paper_scp_flavor();
    config.fault_model = model::FaultModel{lambda, false};
    config.seed = 0xC0DE;
    const auto result = sched::run_executive(policy_set, config);
    for (std::size_t i = 0; i < policy_set.tasks.size(); ++i) {
      const auto& stats = result.per_task[i];
      table.add_row({policy, policy_set.tasks[i].name,
                     std::to_string(stats.released),
                     std::to_string(stats.completed),
                     util::fmt_prob(result.miss_ratio(i)),
                     util::fmt_fixed(stats.response_time.mean(), 0),
                     util::fmt_energy(stats.energy)});
    }
    table.add_rule();
  }
  std::cout << table
            << "\nReading: under the fixed k-f-t scheme faults snowball\n"
               "through the queue (non-preemptive blocking), while the\n"
               "adaptive DVS schemes absorb them; A_D_S does so with the\n"
               "least energy.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(argc, argv, {"horizon", "lambda"}, tool_main);
}
