// UAV flight-controller mission (the paper's "autonomous airborne
// systems working on limited battery supply").
//
// A control job runs once per 50 ms frame for a 3-hour mission.  The
// transient-fault process depends on altitude: more atmospheric
// neutrons higher up (higher rate), and at survey altitude the flux
// arrives in correlated bursts (solar activity), which the plain
// Poisson model understates.  Each phase therefore carries a fault
// *environment*, not just a lambda.  The example asks two operational
// questions:
//   1. Which checkpointing scheme keeps the control deadline-miss rate
//      below a 1e-3 budget in every phase — including the bursty one?
//   2. How many control frames does the battery fund under each scheme?
#include <iostream>
#include <string>
#include <vector>

#include "model/fault_env.hpp"
#include "policy/factory.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

using namespace adacheck;

struct MissionPhase {
  std::string name;
  double minutes;
  double lambda;  // per-time-unit quiet fault rate at this altitude
  model::FaultEnvironment environment;
  std::string environment_label;
};

int tool_main(const adacheck::util::CliArgs& args) {
  const int runs = static_cast<int>(args.get_int("runs", 4'000));
  // Battery budget in the same V^2*cycles units the simulator reports.
  const double battery = args.get_double("battery", 1.3e10);

  // One control frame: 8200 cycles of worst-case work at f1 against a
  // 10000-unit frame deadline (U = 0.82), tolerate k = 5 faults/frame.
  const auto poisson = model::FaultEnvironment::exponential();
  // Survey altitude: solar-modulated neutron showers — 8x bursts a few
  // frames long, with a fifth of the strikes hitting both replicas.
  const auto showers = model::FaultEnvironment::bursty(8.0, 1'800.0, 300.0)
                           .with_common_cause(0.2);
  const std::vector<MissionPhase> phases = {
      {"takeoff  (0.5 km)", 20.0, 4.0e-4, poisson, "poisson"},
      {"transit  (3 km)", 60.0, 9.0e-4, poisson, "poisson"},
      {"survey   (6 km)", 80.0, 1.1e-3, showers, "8x bursts+cc"},
      {"descent  (1 km)", 20.0, 5.0e-4, poisson, "poisson"},
  };

  std::cout << "=== UAV mission: 50 ms control frames, U = 0.82, k = 5 ===\n"
            << "miss budget per phase: P(miss) <= 1e-3; battery = "
            << battery << " energy units\n\n";

  const std::vector<std::string> schemes = {"k-f-t", "A_D_S", "A_D_S-est"};
  util::TextTable table({"phase", "environment", "lambda", "scheme",
                         "P(timely)", "E/frame", "meets 1e-3?",
                         "frames on battery"});

  struct Tally {
    double worst_p = 1.0;
    double total_energy_rate = 0.0;  // weighted by phase duration
  };
  std::vector<Tally> tallies(schemes.size());

  for (const auto& phase : phases) {
    sim::SimSetup setup{
        model::task_from_utilization(0.82, 1.0, 10'000.0, 5),
        model::CheckpointCosts::paper_scp_flavor(),
        model::DvsProcessor::two_speed(2.0),
        model::FaultModel{phase.lambda, false},
        phase.environment};
    sim::MonteCarloConfig config;
    config.runs = runs;
    config.seed = 0xF17E + static_cast<std::uint64_t>(phase.minutes);

    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const auto stats = sim::run_cell(
          setup, policy::make_policy_factory(schemes[s]), config);
      const double p = stats.probability();
      const double energy = stats.energy_all.mean();
      const bool meets = (1.0 - p) <= 1e-3;
      const double frames = battery / energy;
      table.add_row({phase.name, phase.environment_label,
                     util::fmt_sci(phase.lambda, 1), schemes[s],
                     util::fmt_prob(p), util::fmt_energy(energy),
                     meets ? "yes" : "NO",
                     util::fmt_energy(frames)});
      tallies[s].worst_p = std::min(tallies[s].worst_p, p);
      tallies[s].total_energy_rate += phase.minutes * energy;
    }
    table.add_rule();
  }
  std::cout << table << "\nMission summary:\n";
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    // Frames per minute at 20 frames/s * 60 = 1200.
    const double mission_energy = tallies[s].total_energy_rate * 1'200.0;
    std::cout << "  " << schemes[s] << ": worst-phase P = "
              << util::fmt_prob(tallies[s].worst_p)
              << ", 3-hour mission energy = "
              << util::fmt_energy(mission_energy)
              << (mission_energy <= battery ? "  (within battery)"
                                            : "  (EXCEEDS battery)")
              << "\n";
  }
  std::cout << "\nReading: the fixed k-f-t scheme is cheapest but blows the\n"
               "miss budget at every altitude; A_D_S holds it in every\n"
               "phase including the bursty survey leg.  The rate-tracking\n"
               "A_D_S-est matches it under bursts by shortening intervals\n"
               "while a shower is in progress — the flip side is that long\n"
               "quiet stretches relax its plan, trading a sliver of quiet-\n"
               "phase margin for burst responsiveness.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(argc, argv, {"runs", "battery"}, tool_main);
}
