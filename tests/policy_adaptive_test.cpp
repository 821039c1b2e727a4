#include "policy/adaptive.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "analytic/dvs_estimate.hpp"
#include "analytic/interval_policy.hpp"
#include "analytic/num_checkpoints.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::policy {
namespace {

sim::ExecContext make_context(const sim::SimSetup& setup,
                              double remaining_cycles, double now,
                              int remaining_faults) {
  sim::ExecContext ctx;
  ctx.task = &setup.task;
  ctx.costs = &setup.costs;
  ctx.processor = &setup.processor;
  ctx.lambda = setup.fault_model.rate;
  ctx.remaining_cycles = remaining_cycles;
  ctx.now = now;
  // These fixtures treat elapsed time as fully vulnerable (the rate
  // estimator observes the exposure clock).
  ctx.exposure = now;
  ctx.remaining_faults = remaining_faults;
  return ctx;
}

TEST(AdaptivePolicy, SchemeNamesFollowPaper) {
  EXPECT_EQ(AdaptiveCheckpointPolicy(AdaptiveCheckpointPolicy::adt_dvs())
                .name(),
            "A_D");
  EXPECT_EQ(AdaptiveCheckpointPolicy(
                AdaptiveCheckpointPolicy::adapchp_dvs_scp())
                .name(),
            "A_D_S");
  EXPECT_EQ(AdaptiveCheckpointPolicy(
                AdaptiveCheckpointPolicy::adapchp_dvs_ccp())
                .name(),
            "A_D_C");
  EXPECT_EQ(AdaptiveCheckpointPolicy(AdaptiveCheckpointPolicy::adapchp_scp())
                .name(),
            "adapchp-SCP");
  EXPECT_EQ(AdaptiveCheckpointPolicy(AdaptiveCheckpointPolicy::adapchp_ccp())
                .name(),
            "adapchp-CCP");
}

TEST(AdaptivePolicy, DvsPicksHighSpeedUnderPressure) {
  // Paper Table 1(a) entry state: t_est at f1 misses the deadline.
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::adt_dvs());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_DOUBLE_EQ(d.speed.frequency, 2.0);
  EXPECT_FALSE(d.abort);
  EXPECT_EQ(d.inner, sim::InnerKind::kNone);
}

TEST(AdaptivePolicy, DvsDropsToLowSpeedWhenComfortable) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::adt_dvs());
  // Mid-run: 4000 cycles left, 8000 time left -> f1 feasible.
  const auto d = policy.on_fault(make_context(setup, 4'000.0, 2'000.0, 4));
  EXPECT_DOUBLE_EQ(d.speed.frequency, 1.0);
}

TEST(AdaptivePolicy, IntervalMatchesFig4) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::adt_dvs());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  // At f2: Rt = 3800, C = 11; Fig. 4 chooses I1 here (exp_error > Rf,
  // Rt below the lambda-threshold).
  const auto expected = analytic::adaptive_interval(
      10'000.0, 3'800.0, 11.0, 5, 1.4e-3);
  EXPECT_EQ(expected.rule, analytic::IntervalRule::kPoisson);
  EXPECT_NEAR(d.cscp_interval, expected.interval, 1e-9);
}

TEST(AdaptivePolicy, ScpVariantUsesNumScp) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_EQ(d.inner, sim::InnerKind::kScp);
  // sub_interval = Itv / num_SCP(Itv) with time-scaled costs at f2.
  analytic::ScpRenewalParams params;
  params.interval = d.cscp_interval;
  params.lambda = 1.4e-3;
  params.costs = {2.0 / 2.0, 20.0 / 2.0, 0.0};
  const int m = analytic::num_scp(params);
  EXPECT_NEAR(d.sub_interval, d.cscp_interval / m, 1e-9);
  EXPECT_GE(m, 1);
}

TEST(AdaptivePolicy, CcpVariantUsesNumCcp) {
  auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  setup.costs = model::CheckpointCosts::paper_ccp_flavor();
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_ccp());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_EQ(d.inner, sim::InnerKind::kCcp);
  EXPECT_LE(d.sub_interval, d.cscp_interval);
}

TEST(AdaptivePolicy, AbortsWhenNothingFits) {
  // Remaining work exceeds the deadline even at f2 (Fig. 6 line 6).
  const auto setup = testutil::dvs_setup(30'000.0, 10'000.0, 5, 1e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  const auto d = policy.initial(make_context(setup, 30'000.0, 0.0, 5));
  EXPECT_TRUE(d.abort);
}

TEST(AdaptivePolicy, NonDvsVariantPinsSpeed) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  auto config = AdaptiveCheckpointPolicy::adapchp_scp();
  config.fixed_level = 0;
  AdaptiveCheckpointPolicy policy(config);
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_DOUBLE_EQ(d.speed.frequency, 1.0);
  EXPECT_EQ(d.inner, sim::InnerKind::kScp);
}

TEST(AdaptivePolicy, NonDvsAbortsWhenItsSpeedCannotFit) {
  // At f1 the remaining work exceeds the deadline; without DVS the
  // Fig. 3 guard fires even though f2 would have fit.
  const auto setup = testutil::dvs_setup(11'000.0, 10'000.0, 5, 1e-4);
  auto config = AdaptiveCheckpointPolicy::adapchp_scp();
  AdaptiveCheckpointPolicy policy(config);
  const auto d = policy.initial(make_context(setup, 11'000.0, 0.0, 5));
  EXPECT_TRUE(d.abort);
}

TEST(AdaptivePolicy, OnCommitKeepsPlanByDefault) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  (void)policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  const auto replacement =
      policy.on_commit(make_context(setup, 7'000.0, 400.0, 5));
  EXPECT_FALSE(replacement.has_value());
}

TEST(AdaptivePolicy, OnCommitAbortsWhenHopeless) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  (void)policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  // 6000 cycles left but only 2000 time: even f2 cannot fit.
  const auto replacement =
      policy.on_commit(make_context(setup, 6'000.0, 8'000.0, 3));
  ASSERT_TRUE(replacement.has_value());
  EXPECT_TRUE(replacement->abort);
}

TEST(AdaptivePolicy, RecomputeAtCommitKnob) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  auto config = AdaptiveCheckpointPolicy::adapchp_dvs_scp();
  config.recompute_at_commit = true;
  AdaptiveCheckpointPolicy policy(config);
  (void)policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  const auto replacement =
      policy.on_commit(make_context(setup, 7'000.0, 400.0, 5));
  ASSERT_TRUE(replacement.has_value());
  EXPECT_FALSE(replacement->abort);
  EXPECT_GT(replacement->cscp_interval, 0.0);
}

TEST(AdaptivePolicy, MaxInnerCapRespected) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 2e-2);
  auto config = AdaptiveCheckpointPolicy::adapchp_dvs_scp();
  config.max_inner = 2;
  AdaptiveCheckpointPolicy policy(config);
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  if (!d.abort) {
    EXPECT_GE(d.sub_interval, d.cscp_interval / 2.0 - 1e-9);
  }
  EXPECT_THROW(
      AdaptiveCheckpointPolicy([] {
        auto c = AdaptiveCheckpointPolicy::adapchp_dvs_scp();
        c.max_inner = 0;
        return c;
      }()),
      std::invalid_argument);
}

TEST(AdaptivePolicy, ExhaustedFaultBudgetStillPlans) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 1, 1e-4);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  const auto d = policy.on_fault(make_context(setup, 3'000.0, 5'000.0, -1));
  EXPECT_FALSE(d.abort);
  EXPECT_GT(d.cscp_interval, 0.0);
}

TEST(AdaptivePolicy, IntervalNeverExceedsRemainingWork) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1e-4);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  for (double rc : {7'600.0, 2'000.0, 200.0, 10.0}) {
    const auto d = policy.on_fault(make_context(setup, rc, 1'000.0, 3));
    ASSERT_FALSE(d.abort);
    EXPECT_LE(d.cscp_interval, rc / d.speed.frequency + 1e-9) << rc;
  }
}

TEST(AdaptivePolicy, EstimatorNamesCarryTheSuffix) {
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp()));
  EXPECT_EQ(policy.name(), "A_D_S-est");
  EXPECT_TRUE(policy.config().estimate_rate);
}

TEST(AdaptivePolicy, EstimatorStartsAtTheNominalRate) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp()));
  // Before any time elapses there is nothing to observe: the planning
  // rate is exactly the nominal (environment-effective) lambda.
  const auto ctx = make_context(setup, 7'600.0, 0.0, 5);
  EXPECT_DOUBLE_EQ(policy.planning_lambda(ctx), 1.4e-3);
}

TEST(AdaptivePolicy, EstimatorTracksObservedGaps) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp()));

  // Faults arriving much faster than nominal pull the estimate up ...
  auto stormy = make_context(setup, 5'000.0, 2'000.0, 5);
  stormy.faults_detected = 20;  // observed rate 1e-2 >> 1.4e-3
  const double up = policy.planning_lambda(stormy);
  EXPECT_GT(up, 1.4e-3);
  EXPECT_LT(up, 1e-2);  // the prior tempers the jump

  // ... and a long quiet stretch pulls it down.
  auto quiet = make_context(setup, 5'000.0, 8'000.0, 5);
  quiet.faults_detected = 0;
  EXPECT_LT(policy.planning_lambda(quiet), 1.4e-3);

  // More observations move the posterior monotonically toward the
  // observed rate (without overshooting it).
  auto heavier = stormy;
  heavier.now = 4'000.0;
  heavier.faults_detected = 40;
  const double closer = policy.planning_lambda(heavier);
  EXPECT_GT(closer, up);
  EXPECT_LT(closer, 1e-2);
}

TEST(AdaptivePolicy, EstimatorShrinksIntervalsUnderObservedStorms) {
  // The whole point of tracking: given the same nominal lambda, a
  // policy that has seen a storm plans denser checkpoints than one
  // planning blind.  An exhausted fault budget and a distant deadline
  // pin Fig. 4 to the I1 branch, whose interval sqrt(2C/lambda) is
  // strictly decreasing in the planning rate.
  const auto setup = testutil::dvs_setup(7'600.0, 400'000.0, 30, 2.0e-4);
  AdaptiveCheckpointPolicy blind(AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  AdaptiveCheckpointPolicy tracking(
      AdaptiveCheckpointPolicy::with_estimator(
          AdaptiveCheckpointPolicy::adapchp_dvs_scp()));
  auto ctx = make_context(setup, 6'000.0, 3'000.0, 0);
  ctx.faults_detected = 12;  // a storm: 4e-3 observed vs 2e-4 nominal
  const auto blind_plan = blind.on_fault(ctx);
  const auto tracking_plan = tracking.on_fault(ctx);
  ASSERT_FALSE(blind_plan.abort);
  ASSERT_FALSE(tracking_plan.abort);
  EXPECT_LT(tracking_plan.cscp_interval, blind_plan.cscp_interval);
}

TEST(AdaptivePolicy, EstimatorWithZeroNominalRateUsesPureObservation) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 0.0);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adt_dvs()));
  auto ctx = make_context(setup, 5'000.0, 2'000.0, 5);
  ctx.faults_detected = 4;
  EXPECT_DOUBLE_EQ(policy.planning_lambda(ctx), 4.0 / 2'000.0);
}

bool same_decision(const sim::Decision& a, const sim::Decision& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.speed.frequency) == bits(b.speed.frequency) &&
         bits(a.speed.voltage) == bits(b.speed.voltage) &&
         bits(a.cscp_interval) == bits(b.cscp_interval) &&
         bits(a.sub_interval) == bits(b.sub_interval) &&
         a.inner == b.inner && a.abort == b.abort;
}

TEST(AdaptivePolicy, SolveMemoNeverChangesADecision) {
  // One warm instance per scheme, re-armed through reset() between
  // runs so its inner-solve memo carries over, must decide exactly as
  // a fresh instance does on every context.  Each context comes three
  // times in a row: as is, with only the nominal rate changed, and
  // with only the redundancy switched between DMR and TMR, so a memo
  // key missing the rate or the TMR flag returns a stale m.
  //
  // Remaining cycles per unit of remaining deadline: from slack at
  // the slow speed to deadline pressure at the fast one, where Itv no
  // longer depends on the rate and only the rate key separates solves.
  constexpr double kLoad[] = {0.5, 0.8, 1.3, 1.7, 1.95};
  int split = 0;  // decisions with inner checkpoints (m > 1)
  for (const auto costs : {model::CheckpointCosts::paper_scp_flavor(),
                           model::CheckpointCosts::paper_ccp_flavor()}) {
    auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
    setup.costs = costs;
    for (const char* scheme :
         {"A_D_S", "A_D_C", "A_D_S-est", "A_D_C-est", "adapchp-SCP"}) {
      auto warm = make_policy(scheme);
      for (int run = 0; run < 12; ++run) {
        ASSERT_TRUE(warm->reset());
        const double lambda = run % 3 == 0 ? 1.4e-3 : run % 3 == 1 ? 5e-3
                                                                   : 2e-2;
        for (int step = 0; step < 10; ++step) {
          const double now = 410.0 * step;
          auto ctx = make_context(setup, kLoad[step % 5] * (10'000.0 - now),
                                  now, 5 - step / 2);
          ctx.lambda = lambda;
          ctx.faults_detected = step;
          ctx.redundancy = run % 2 == 0 ? 2 : 3;
          for (int variant = 0; variant < 3; ++variant) {
            if (variant == 1) ctx.lambda = lambda * 1.5;
            if (variant == 2) ctx.redundancy = 5 - ctx.redundancy;
            const auto fresh = make_policy(scheme);
            const bool first = step == 0 && variant == 0;
            const auto expected =
                first ? fresh->initial(ctx) : fresh->on_fault(ctx);
            const auto got = first ? warm->initial(ctx) : warm->on_fault(ctx);
            ASSERT_TRUE(same_decision(got, expected))
                << scheme << " run " << run << " step " << step
                << " variant " << variant;
            if (!got.abort && got.sub_interval < got.cscp_interval) ++split;
          }
        }
      }
    }
  }
  EXPECT_GT(split, 100);  // the solves matter: many decisions split
}

}  // namespace
}  // namespace adacheck::policy
