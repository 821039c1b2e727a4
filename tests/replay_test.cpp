// Record/replay round-trip: a stochastic run's fault trace, replayed
// through ReplayFaultSource, must reproduce the run exactly.  This is
// the mechanism the satellite example uses for post-mortem debugging.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "model/fault_env.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::sim {
namespace {

using testutil::ScriptedPolicy;
using testutil::basic_setup;
using testutil::inner_plan;

/// Extracts the replayable fault trace (exposure coordinates are stored
/// in the kFault events' value field).
model::FaultTrace extract_faults(const RunResult& result) {
  model::FaultTrace trace;
  for (const auto& e : result.trace.events()) {
    if (e.kind == TraceEventKind::kFault) trace.record(e.value, e.aux);
  }
  return trace;
}

/// Replay is exact: every field, bit for bit.
void expect_identical(const RunResult& a, const RunResult& b) {
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
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

TEST(Replay, RoundTripScriptedPolicy) {
  const auto setup = basic_setup(2'000.0, 5'000.0, 10, 2e-3);
  EngineConfig config;
  config.record_trace = true;

  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1000ull}) {
    ScriptedPolicy original(inner_plan(setup, 200.0, 50.0, InnerKind::kScp));
    const auto recorded = simulate_seeded(setup, original, seed, config);

    const auto faults = extract_faults(recorded);
    model::ReplayFaultSource source(faults);
    ScriptedPolicy replayed_policy(
        inner_plan(setup, 200.0, 50.0, InnerKind::kScp));
    const auto replayed = simulate(setup, replayed_policy, source, config);

    expect_identical(recorded, replayed);
  }
}

TEST(Replay, RoundTripAdaptivePolicies) {
  // The adaptive policies make state-dependent decisions; replay still
  // reproduces them because decisions are pure functions of ExecContext.
  // simulate_seeded runs a loop specialized to each concrete stochastic
  // source, while replay takes simulate()'s virtual FaultSource path:
  // one environment per source the seeded path instantiates.
  for (const char* environment : {"poisson", "weibull-infant",
                                  "bursty-orbit"}) {
    for (const char* name : {"Poisson", "A_D", "A_D_S", "A_D_C"}) {
      auto setup = basic_setup(7'600.0, 10'000.0, 5, 1.4e-3);
      setup.processor = model::DvsProcessor::two_speed(2.0);
      setup.environment = model::find_environment(environment);
      EngineConfig config;
      config.record_trace = true;

      for (std::uint64_t seed : {77ull, 2024ull}) {
        SCOPED_TRACE(std::string(name) + "@" + environment + " seed " +
                     std::to_string(seed));
        auto original = policy::make_policy(name);
        const auto recorded = simulate_seeded(setup, *original, seed, config);
        ASSERT_GT(recorded.faults, 0);  // scenario must be interesting

        const auto faults = extract_faults(recorded);
        model::ReplayFaultSource source(faults);
        auto replayed_policy = policy::make_policy(name);
        const auto replayed =
            simulate(setup, *replayed_policy, source, config);
        expect_identical(recorded, replayed);
      }
    }
  }
}

TEST(Replay, PerturbedTraceDiverges) {
  const auto setup = basic_setup(2'000.0, 5'000.0, 10, 2e-3);
  EngineConfig config;
  config.record_trace = true;
  ScriptedPolicy original(inner_plan(setup, 200.0, 50.0, InnerKind::kScp));
  const auto recorded = simulate_seeded(setup, original, 42, config);
  ASSERT_GT(recorded.faults, 0);

  // Drop the first fault: the replay must differ.
  model::FaultTrace trimmed;
  bool skipped = false;
  for (const auto& e : recorded.trace.events()) {
    if (e.kind != TraceEventKind::kFault) continue;
    if (!skipped) {
      skipped = true;
      continue;
    }
    trimmed.record(e.value, e.aux);
  }
  model::ReplayFaultSource source(trimmed);
  ScriptedPolicy policy(inner_plan(setup, 200.0, 50.0, InnerKind::kScp));
  const auto replayed = simulate(setup, policy, source, config);
  EXPECT_NE(replayed.finish_time, recorded.finish_time);
}

}  // namespace
}  // namespace adacheck::sim
