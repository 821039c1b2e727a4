// The engine's fault-free path: an untraced attempt that no fault
// reaches commits as straight-line arithmetic instead of walking its
// windows one by one.  A trace records every window, so traced runs
// always take the general path: traced vs untraced runs pin the two
// paths to each other, run by run and bit for bit.  The digests were
// captured from the engine as it was before it had a fault-free path
// (hex floats, so every bit is compared).
#include <gtest/gtest.h>

#include <ios>
#include <memory>
#include <string>
#include <utility>

#include "policy/adaptive.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"
#include "sim/monte_carlo.hpp"

namespace adacheck {
namespace {

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.cycles_executed, b.cycles_executed);
  EXPECT_EQ(a.cycles_committed, b.cycles_committed);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.corrections, b.corrections);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.checkpoints_scp, b.checkpoints_scp);
  EXPECT_EQ(a.checkpoints_ccp, b.checkpoints_ccp);
  EXPECT_EQ(a.checkpoints_cscp, b.checkpoints_cscp);
  EXPECT_EQ(a.speed_switches, b.speed_switches);
  EXPECT_EQ(a.meter.breakdown(), b.meter.breakdown());
}

/// Sums over a batch of seeded runs, in seed order.
struct Digest {
  double energy = 0.0;
  double finish_time = 0.0;
  double cycles_executed = 0.0;
  int completed = 0;
  int aborted = 0;
  int faults = 0;
  int rollbacks = 0;
  int checkpoints = 0;  ///< SCP + CCP + CSCP
};

void expect_digest(const Digest& got, const Digest& want) {
  EXPECT_EQ(got.energy, want.energy) << std::hexfloat << got.energy;
  EXPECT_EQ(got.finish_time, want.finish_time)
      << std::hexfloat << got.finish_time;
  EXPECT_EQ(got.cycles_executed, want.cycles_executed)
      << std::hexfloat << got.cycles_executed;
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.aborted, want.aborted);
  EXPECT_EQ(got.faults, want.faults);
  EXPECT_EQ(got.rollbacks, want.rollbacks);
  EXPECT_EQ(got.checkpoints, want.checkpoints);
}

/// Runs seeds [0, runs) untraced and traced with fresh policies, expects
/// each pair identical, and returns the untraced runs' digest.  Also
/// reports, through `on_traced`, every traced run.
template <class OnTraced>
Digest run_both_ways(const sim::SimSetup& setup,
                     const sim::PolicyFactory& make_policy, int runs,
                     OnTraced&& on_traced) {
  Digest digest;
  sim::EngineConfig traced;
  traced.record_trace = true;
  for (int seed = 0; seed < runs; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto untraced_policy = make_policy();
    const auto traced_policy = make_policy();
    const auto fast = sim::simulate_seeded(setup, *untraced_policy, seed);
    const auto general =
        sim::simulate_seeded(setup, *traced_policy, seed, traced);
    expect_same_run(fast, general);
    on_traced(general);
    digest.energy += fast.energy;
    digest.finish_time += fast.finish_time;
    digest.cycles_executed += fast.cycles_executed;
    digest.completed += fast.completed() ? 1 : 0;
    digest.aborted += fast.outcome == sim::RunOutcome::kAborted ? 1 : 0;
    digest.faults += fast.faults;
    digest.rollbacks += fast.rollbacks;
    digest.checkpoints +=
        fast.checkpoints_scp + fast.checkpoints_ccp + fast.checkpoints_cscp;
  }
  return digest;
}

Digest run_both_ways(const sim::SimSetup& setup,
                     const sim::PolicyFactory& make_policy, int runs) {
  return run_both_ways(setup, make_policy, runs, [](const sim::RunResult&) {});
}

/// The paper's table setting at U = 0.78, lambda = 1.4e-3 (about a
/// dozen faults a run); A_D_C takes the CCP-flavor costs.
sim::SimSetup paper_setup(const std::string& scheme, bool overhead_faults,
                          int processors = 2) {
  return sim::SimSetup{model::task_from_utilization(0.78, 1.0, 10'000.0, 5),
                       scheme == "A_D_C"
                           ? model::CheckpointCosts::paper_ccp_flavor()
                           : model::CheckpointCosts::paper_scp_flavor(),
                       model::DvsProcessor::two_speed(2.0),
                       model::FaultModel{1.4e-3, overhead_faults, processors}};
}

void expect_same_stats(const sim::CellStats& a, const sim::CellStats& b) {
  EXPECT_EQ(a.completion.trials(), b.completion.trials());
  EXPECT_EQ(a.completion.successes(), b.completion.successes());
  EXPECT_EQ(a.aborted_runs, b.aborted_runs);
  EXPECT_EQ(b.validation_failures, 0u);
  const std::pair<const util::RunningStats*, const util::RunningStats*>
      tracked[] = {
          {&a.energy_success, &b.energy_success},
          {&a.energy_all, &b.energy_all},
          {&a.finish_time_success, &b.finish_time_success},
          {&a.faults, &b.faults},
          {&a.rollbacks, &b.rollbacks},
          {&a.corrections, &b.corrections},
          {&a.high_speed_cycles, &b.high_speed_cycles},
      };
  for (const auto& [lhs, rhs] : tracked) {
    EXPECT_EQ(lhs->count(), rhs->count());
    EXPECT_EQ(lhs->mean(), rhs->mean());
    EXPECT_EQ(lhs->variance(), rhs->variance());
    EXPECT_EQ(lhs->min(), rhs->min());
    EXPECT_EQ(lhs->max(), rhs->max());
  }
}

TEST(FaultFreePath, TracingOnOffIdenticalForEveryPaperScheme) {
  const struct {
    const char* scheme;
    Digest digest;
  } cases[] = {
      {"Poisson",
       {0x1.8bd5dd948b95fp+20, 0x1.8617f447567dbp+18, 0x1.8bd5dd948b95fp+18, 4,
        0, 481, 431, 1603}},
      {"k-f-t",
       {0x1.8bcf9217725f8p+20, 0x1.863086bc99d84p+18, 0x1.8bcf9217725f8p+18, 3,
        0, 485, 434, 1524}},
      {"A_D",
       {0x1.22d38f66abd8p+21, 0x1.4abc882bc9303p+18, 0x1.9e600fb6f8b05p+18, 40,
        0, 398, 356, 1570}},
      {"A_D_S",
       {0x1.0adbf31ab1bc7p+21, 0x1.49fc24fdc6cfcp+18, 0x1.8de56565a5b26p+18, 40,
        0, 390, 349, 6388}},
      {"A_D_C",
       {0x1.0970f2d9e738ap+21, 0x1.4449dea7f3c2fp+18, 0x1.8927365691fcfp+18, 40,
        0, 384, 373, 5338}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.scheme);
    const auto setup = paper_setup(c.scheme, false);
    const auto factory = policy::make_policy_factory(c.scheme);
    // run_cell traces every run when it validates them.
    sim::MonteCarloConfig untraced;
    untraced.runs = 300;
    untraced.seed = 2024;
    untraced.threads = 1;
    sim::MonteCarloConfig traced = untraced;
    traced.validate = true;
    expect_same_stats(sim::run_cell(setup, factory, untraced),
                      sim::run_cell(setup, factory, traced));
    expect_digest(run_both_ways(setup, factory, 40), c.digest);
  }
}

TEST(FaultFreePath, PolicyThatReplansAtEveryCommit) {
  const struct {
    const char* name;
    policy::AdaptiveConfig config;
    Digest digest;
  } cases[] = {
      {"A_D_S",
       policy::AdaptiveCheckpointPolicy::adapchp_dvs_scp(),
       {0x1.e5fd878b250f4p+20, 0x1.67ce83192fe17p+18, 0x1.91de2f3f2c45ep+18, 40,
        0, 418, 373, 6869}},
      {"A_D_C",
       policy::AdaptiveCheckpointPolicy::adapchp_dvs_ccp(),
       {0x1.e3706d00474dp+20, 0x1.63636aa9ef47dp+18, 0x1.8e126b7161f45p+18, 40,
        0, 414, 397, 5597}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto config = c.config;
    config.recompute_at_commit = true;
    const sim::PolicyFactory factory = [config] {
      return std::make_unique<policy::AdaptiveCheckpointPolicy>(config);
    };
    expect_digest(run_both_ways(paper_setup(c.name, false), factory, 40),
                  c.digest);
  }
}

TEST(FaultFreePath, CommitAbortGuardInsideAFaultFreeRun) {
  // One speed at U = 0.98: checkpoint overhead eats the slack, and the
  // adaptive policies' on_commit guard aborts once the remaining work
  // no longer fits, often right after a string of clean commits.
  const struct {
    const char* scheme;
    Digest digest;
  } cases[] = {
      {"A_D_S",
       {0x1.12e527350b884p+20, 0x1.12e527350b884p+18, 0x1.12e527350b884p+18, 0,
        40, 22, 19, 1401}},
      {"adapchp-CCP",
       {0x1.01e4260dd67cbp+20, 0x1.01e4260dd67cbp+18, 0x1.01e4260dd67cbp+18, 0,
        40, 20, 20, 1333}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.scheme);
    const bool ccp = std::string(c.scheme) == "adapchp-CCP";
    const sim::SimSetup setup{
        model::task_from_utilization(0.98, 1.0, 10'000.0, 5),
        ccp ? model::CheckpointCosts::paper_ccp_flavor()
            : model::CheckpointCosts::paper_scp_flavor(),
        model::DvsProcessor({model::SpeedLevel{1.0, 2.0}}),
        model::FaultModel{1.0e-4, false}};
    int guard_after_clean_commits = 0;
    const auto digest = run_both_ways(
        setup, policy::make_policy_factory(c.scheme), 40,
        [&](const sim::RunResult& run) {
          if (run.outcome != sim::RunOutcome::kAborted) return;
          // Clean commits since the last fault, before the abort.
          const auto& events = run.trace.events();
          int commits = 0;
          for (auto it = events.rbegin(); it != events.rend(); ++it) {
            if (it->kind == sim::TraceEventKind::kFault) break;
            if (it->kind == sim::TraceEventKind::kCommit) ++commits;
          }
          if (commits >= 2) ++guard_after_clean_commits;
        });
    EXPECT_GT(guard_after_clean_commits, 0);
    expect_digest(digest, c.digest);
  }
}

TEST(FaultFreePath, FaultsDuringOverhead) {
  const struct {
    const char* scheme;
    int processors;
    Digest digest;
  } cases[] = {
      {"Poisson", 2,
       {0x1.8c6b99deca4ccp+20, 0x1.8684c3c5a1f64p+18, 0x1.8c6b99deca4ccp+18, 2,
        0, 543, 482, 1555}},
      {"A_D_S", 2,
       {0x1.10a3354ac4ea6p+21, 0x1.50c6ea56bea39p+18, 0x1.9646bfc1025e4p+18, 40,
        0, 453, 396, 6478}},
      {"A_D_C", 2,
       {0x1.11c2244fb97fap+21, 0x1.4550e0f5abd6p+18, 0x1.8f62038398e3ap+18, 40,
        0, 438, 427, 5374}},
      {"A_D_S", 3,
       {0x1.c36cba52870f2p+20, 0x1.2408014bfbd5p+18, 0x1.5929944e2a3dap+18, 40,
        0, 394, 27, 1626}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.scheme) + " N=" +
                 std::to_string(c.processors));
    expect_digest(run_both_ways(paper_setup(c.scheme, true, c.processors),
                                policy::make_policy_factory(c.scheme), 40),
                  c.digest);
  }
}

}  // namespace
}  // namespace adacheck
