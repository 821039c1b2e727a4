#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::sim {
namespace {

using testutil::ScriptedPolicy;
using testutil::basic_setup;
using testutil::dvs_setup;
using testutil::plain_plan;
using testutil::run_with_faults;

TEST(EngineBasic, FaultFreeRunCompletesWithExactTiming) {
  // N = 1000 at f1, interval 100: 10 intervals, 10 CSCPs of 22 cycles.
  const auto setup = basic_setup(1'000.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_NEAR(result.finish_time, 1'000.0 + 10.0 * 22.0, 1e-9);
  EXPECT_EQ(result.checkpoints_cscp, 10);
  EXPECT_EQ(result.faults, 0);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_NEAR(result.cycles_committed, 1'000.0, 1e-9);
  // Energy: V = 2 at f1, cycles = 1000 + 220 overhead.
  EXPECT_NEAR(result.energy, 4.0 * 1'220.0, 1e-9);
}

TEST(EngineBasic, PartialTrailingInterval) {
  // N = 250 with interval 100 -> intervals of 100, 100, 50.
  const auto setup = basic_setup(250.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(result.checkpoints_cscp, 3);
  EXPECT_NEAR(result.finish_time, 250.0 + 3.0 * 22.0, 1e-9);
}

TEST(EngineBasic, IntervalLargerThanTaskIsClamped) {
  const auto setup = basic_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 1e18));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(result.checkpoints_cscp, 1);
  EXPECT_NEAR(result.finish_time, 122.0, 1e-9);
}

TEST(EngineBasic, DeadlineMissWhenTooTight) {
  // Work + overhead = 122 > deadline 121.
  const auto setup = basic_setup(100.0, 121.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kDeadlineMiss);
  EXPECT_FALSE(result.completed());
}

TEST(EngineBasic, CompletionExactlyAtDeadlineCounts) {
  const auto setup = basic_setup(100.0, 122.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
}

TEST(EngineBasic, AbortDecisionHonored) {
  const auto setup = basic_setup(100.0, 1'000.0);
  Decision d = plain_plan(setup, 100.0);
  d.abort = true;
  ScriptedPolicy policy(d);
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kAborted);
  EXPECT_DOUBLE_EQ(result.cycles_executed, 0.0);
}

TEST(EngineBasic, HigherSpeedHalvesTimeDoublesEnergyRate) {
  auto setup = dvs_setup(1'000.0, 10'000.0);
  Decision d;
  d.speed = setup.processor.fastest();  // f = 2
  d.cscp_interval = 50.0;               // same cycle count per interval
  d.sub_interval = 50.0;
  d.inner = InnerKind::kNone;
  ScriptedPolicy policy(d);
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  // 10 intervals of 100 cycles + 10 CSCPs of 22 cycles, all at f2.
  EXPECT_NEAR(result.finish_time, (1'000.0 + 220.0) / 2.0, 1e-9);
  const double v2 = setup.processor.fastest().voltage;
  EXPECT_NEAR(result.energy, v2 * v2 * 1'220.0, 1e-6);
}

TEST(EngineBasic, SpeedSwitchCounted) {
  auto setup = dvs_setup(200.0, 10'000.0);
  Decision fast;
  fast.speed = setup.processor.fastest();
  fast.cscp_interval = 50.0;
  fast.sub_interval = 50.0;
  Decision slow = fast;
  slow.speed = setup.processor.slowest();
  // One interval fast, then (after a fault) slow.
  ScriptedPolicy policy(std::vector<Decision>{fast, slow});
  // Fault in the second interval's exposure (first interval commits
  // 100 cycles over exposure 0..50; second attempt starts at 50).
  const auto result = run_with_faults(setup, policy, {60.0});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(result.speed_switches, 1);
  EXPECT_EQ(result.faults, 1);
}

TEST(EngineBasic, SeededRunsAreDeterministic) {
  const auto setup = basic_setup(2'000.0, 1e9, 10, 5e-3);
  ScriptedPolicy p1(plain_plan(setup, 150.0)), p2(plain_plan(setup, 150.0));
  const auto a = simulate_seeded(setup, p1, 424242);
  const auto b = simulate_seeded(setup, p2, 424242);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
  EXPECT_EQ(a.faults, b.faults);

  ScriptedPolicy p3(plain_plan(setup, 150.0));
  const auto c = simulate_seeded(setup, p3, 424243);
  EXPECT_NE(a.faults, c.faults);  // overwhelmingly likely at this lambda
}

TEST(EngineBasic, PolicyHookCallCounts) {
  const auto setup = basic_setup(300.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {150.0});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(policy.initial_calls, 1);
  EXPECT_EQ(policy.fault_calls, 1);
  // Commits with work left: interval 1 and the re-run of interval 2.
  // The final commit (interval 3) leaves nothing to plan, so no hook.
  EXPECT_EQ(policy.commit_calls, 2);
}

TEST(EngineBasic, StepLimitGuardsDegeneratePlans) {
  const auto setup = basic_setup(1'000.0, 1e9);
  auto d = testutil::inner_plan(setup, 1'000.0, 1e-4, InnerKind::kScp);
  ScriptedPolicy policy(d);
  EngineConfig config;
  config.max_steps = 1'000;  // 10^7 sub-intervals would exceed this
  model::FaultTrace trace;
  model::ReplayFaultSource source(trace);
  EXPECT_THROW(simulate(setup, policy, source, config), std::runtime_error);

  // Five fault-free attempts of ten sub-intervals each, traced or not:
  // the limit counts across attempts run back to back, exactly at 50.
  const auto plan = testutil::inner_plan(setup, 200.0, 20.0, InnerKind::kScp);
  for (const bool record_trace : {false, true}) {
    SCOPED_TRACE(record_trace ? "traced" : "untraced");
    config.record_trace = record_trace;
    config.max_steps = 49;
    ScriptedPolicy over(plan);
    EXPECT_THROW(simulate_seeded(setup, over, 1, config), std::runtime_error);
    config.max_steps = 50;
    ScriptedPolicy at(plan);
    const auto run = simulate_seeded(setup, at, 1, config);
    EXPECT_TRUE(run.completed());
    EXPECT_EQ(run.checkpoints_cscp, 5);
    EXPECT_EQ(run.checkpoints_scp, 45);
    EXPECT_EQ(at.commit_calls, 4);  // none after the final commit
  }
}

TEST(EngineBasic, RejectsInvalidDecisions) {
  const auto setup = basic_setup(100.0, 1'000.0);
  Decision bad = plain_plan(setup, 0.0);  // non-positive interval
  ScriptedPolicy policy(bad);
  model::FaultTrace trace;
  model::ReplayFaultSource source(trace);
  EXPECT_THROW(simulate(setup, policy, source), std::invalid_argument);

  Decision bad_speed = plain_plan(setup, 10.0);
  bad_speed.speed.frequency = 0.0;
  ScriptedPolicy policy2(bad_speed);
  EXPECT_THROW(simulate(setup, policy2, source), std::invalid_argument);
}

TEST(EngineBasic, FaultBeyondExecutionNeverFires) {
  // Total exposure is exactly N = 100; a fault at 100.5 is unreachable.
  const auto setup = basic_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {100.5});
  EXPECT_EQ(result.faults, 0);
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
}

TEST(EngineBasic, SetupValidationPropagates) {
  // The Monte-Carlo loop validates a cell once and then skips the check
  // per run; the public entry points still check every call.
  const auto valid = basic_setup(100.0, 1'000.0);
  std::vector<std::pair<const char*, SimSetup>> invalid;
  invalid.emplace_back("task", valid);
  invalid.back().second.task.cycles = -5.0;
  invalid.emplace_back("costs", valid);
  invalid.back().second.costs.store = -1.0;
  invalid.emplace_back("fault model", valid);
  invalid.back().second.fault_model.processors = 1;
  invalid.emplace_back("environment", valid);
  invalid.back().second.environment.common_cause_fraction = 2.0;
  for (const auto& [part, setup] : invalid) {
    SCOPED_TRACE(part);
    ScriptedPolicy policy(plain_plan(valid, 10.0));
    model::FaultTrace trace;
    model::ReplayFaultSource source(trace);
    EXPECT_THROW(simulate(setup, policy, source), std::invalid_argument);
    EXPECT_THROW(simulate_seeded(setup, policy, 7), std::invalid_argument);
  }
  ScriptedPolicy policy(plain_plan(valid, 10.0));
  EXPECT_TRUE(simulate_seeded(valid, policy, 7).completed());
}

}  // namespace
}  // namespace adacheck::sim
