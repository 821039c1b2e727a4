#include "analytic/num_checkpoints.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace adacheck::analytic {
namespace {

ScpRenewalParams scp_params(double interval, double lambda,
                            model::CheckpointCosts costs =
                                model::CheckpointCosts::paper_scp_flavor()) {
  ScpRenewalParams p;
  p.interval = interval;
  p.lambda = lambda;
  p.costs = costs;
  return p;
}

CcpRenewalParams ccp_params(double interval, double lambda,
                            model::CheckpointCosts costs =
                                model::CheckpointCosts::paper_ccp_flavor()) {
  CcpRenewalParams p;
  p.interval = interval;
  p.lambda = lambda;
  p.costs = costs;
  return p;
}

TEST(MaxSubIntervals, BoundedByCheapestOperation) {
  // Sub-intervals shorter than the cheaper checkpoint op are useless.
  const auto costs = model::CheckpointCosts::paper_scp_flavor();  // min 2
  EXPECT_EQ(max_sub_intervals(100.0, costs), 50);
  EXPECT_EQ(max_sub_intervals(1.0, costs), 1);
  EXPECT_LE(max_sub_intervals(1e9, costs), 4096);  // hard cap
}

TEST(NumScp, SingleIntervalWhenFaultFree) {
  // lambda = 0: any extra SCP is pure overhead.
  EXPECT_EQ(num_scp(scp_params(500.0, 0.0)), 1);
}

TEST(NumScp, SingleIntervalWhenShort) {
  // A short, low-risk interval cannot amortize an extra store.
  EXPECT_EQ(num_scp(scp_params(30.0, 1e-4)), 1);
}

TEST(NumScp, SplitsLongRiskyIntervals) {
  EXPECT_GT(num_scp(scp_params(2'000.0, 5e-3)), 1);
}

TEST(NumScp, MatchesExhaustiveScan) {
  // The integer search and the Fig. 2 continuous-then-round procedure
  // must both land on the true integer optimum across a parameter sweep.
  for (double interval : {60.0, 125.0, 300.0, 800.0, 2'000.0}) {
    for (double lambda : {1e-4, 1.4e-3, 5e-3, 2e-2}) {
      const auto p = scp_params(interval, lambda);
      const int exact = num_scp_exhaustive(p);
      EXPECT_EQ(num_scp(p), exact)
          << "interval=" << interval << " lambda=" << lambda;
      EXPECT_EQ(num_scp_fig2(p), exact)
          << "interval=" << interval << " lambda=" << lambda;
    }
  }
}

TEST(NumCcp, SingleIntervalWhenFaultFree) {
  EXPECT_EQ(num_ccp(ccp_params(500.0, 0.0)), 1);
}

TEST(NumCcp, SplitsLongRiskyIntervals) {
  EXPECT_GT(num_ccp(ccp_params(2'000.0, 5e-3)), 1);
}

TEST(NumCcp, MatchesExhaustiveScan) {
  for (double interval : {60.0, 125.0, 300.0, 800.0, 2'000.0}) {
    for (double lambda : {1e-4, 1.4e-3, 5e-3, 2e-2}) {
      const auto p = ccp_params(interval, lambda);
      const int exact = num_ccp_exhaustive(p);
      EXPECT_EQ(num_ccp(p), exact)
          << "interval=" << interval << " lambda=" << lambda;
      EXPECT_EQ(num_ccp_fig2(p), exact)
          << "interval=" << interval << " lambda=" << lambda;
    }
  }
}

TEST(NumScp, CheapStoresEncourageMoreScps) {
  // SCP flavor (t_s = 2) should tolerate more inner checkpoints than a
  // hypothetical expensive-store variant at the same risk.
  const auto cheap = scp_params(1'000.0, 5e-3);
  const auto expensive =
      scp_params(1'000.0, 5e-3, model::CheckpointCosts{40.0, 20.0, 0.0});
  EXPECT_GE(num_scp_exhaustive(cheap), num_scp_exhaustive(expensive));
}

TEST(NumCcp, CheapComparesEncourageMoreCcps) {
  const auto cheap = ccp_params(1'000.0, 5e-3);
  const auto expensive =
      ccp_params(1'000.0, 5e-3, model::CheckpointCosts{20.0, 40.0, 0.0});
  EXPECT_GE(num_ccp_exhaustive(cheap), num_ccp_exhaustive(expensive));
}

TEST(NumScp, OptimalCountGrowsWithRisk) {
  int prev = 0;
  for (double lambda : {1e-4, 1e-3, 5e-3, 2e-2}) {
    const int m = num_scp_exhaustive(scp_params(1'000.0, lambda));
    EXPECT_GE(m, prev) << "lambda=" << lambda;
    prev = m;
  }
  EXPECT_GT(prev, 1);
}

model::CheckpointCosts at_speed(model::CheckpointCosts costs, double f) {
  return {costs.store / f, costs.compare / f, costs.rollback / f};
}

TEST(NumCheckpoints, PaperTableDomainMatchesFig2AndExhaustive) {
  // The domain the paper tables' A_D_S / A_D_C decisions draw from: the
  // SCP/CCP paper costs at f1 = 1 and f2 = 2, any interval up to the
  // 10,000 deadline, lambda from 1e-4 to 2e-3.
  int points = 0;
  for (double f : {1.0, 2.0}) {
    const auto scp_costs =
        at_speed(model::CheckpointCosts::paper_scp_flavor(), f);
    const auto ccp_costs =
        at_speed(model::CheckpointCosts::paper_ccp_flavor(), f);
    for (int i = 0; i <= 60; ++i) {
      const double interval = std::pow(10.0, 4.0 * i / 60.0);  // 1..1e4
      for (int j = 0; j <= 20; ++j) {
        const double lambda = 1e-4 * std::pow(20.0, j / 20.0);  // ..2e-3
        const auto ps = scp_params(interval, lambda, scp_costs);
        const auto pc = ccp_params(interval, lambda, ccp_costs);
        const int scp = num_scp(ps);
        const int ccp = num_ccp(pc);
        ASSERT_EQ(scp, num_scp_fig2(ps))
            << "f=" << f << " interval=" << interval << " lambda=" << lambda;
        ASSERT_EQ(scp, num_scp_exhaustive(ps))
            << "f=" << f << " interval=" << interval << " lambda=" << lambda;
        ASSERT_EQ(ccp, num_ccp_fig2(pc))
            << "f=" << f << " interval=" << interval << " lambda=" << lambda;
        ASSERT_EQ(ccp, num_ccp_exhaustive(pc))
            << "f=" << f << " interval=" << interval << " lambda=" << lambda;
        ++points;
      }
    }
  }
  EXPECT_EQ(points, 2 * 61 * 21);
}

/// Uniform double in [0, 1) from the top 53 bits, so the sampled points
/// do not depend on the standard library's distributions.
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::exp(std::log(lo) + unit(rng) * (std::log(hi) - std::log(lo)));
}

TEST(NumCheckpoints, RandomPointsMatchFig2AndExhaustive) {
  // Seeded random points well beyond the paper tables: DVS-scaled costs,
  // rollback costs up to 30, intervals to 1000 and lambda to 0.1.  There
  // every R(m) is finite and all three answers must agree.  Every 500th
  // point instead has lambda*T in [750, 3000], where expm1 overflows and
  // R(1) is inf or NaN: only Fig. 2's handling of those ties defines m,
  // so the search must hand the point to Fig. 2 and return its answer.
  std::mt19937_64 rng(0xC0FFEE);
  int with_rollback = 0, non_finite = 0;
  for (int i = 0; i < 100'000; ++i) {
    const bool overflow = i % 500 == 499;
    const double interval = overflow ? log_uniform(rng, 2e3, 4e4)
                                     : log_uniform(rng, 0.5, 1e3);
    const double lambda = overflow
                              ? log_uniform(rng, 750.0, 3'000.0) / interval
                              : log_uniform(rng, 1e-7, 0.1);
    const double f = unit(rng) < 0.5 ? 1.0 : 2.0;
    const double rollback = unit(rng) < 0.5 ? 0.0 : 30.0 * unit(rng);
    with_rollback += rollback > 0.0;
    auto scp_costs = model::CheckpointCosts::paper_scp_flavor();
    auto ccp_costs = model::CheckpointCosts::paper_ccp_flavor();
    scp_costs.rollback = ccp_costs.rollback = rollback;
    const auto ps = scp_params(interval, lambda, at_speed(scp_costs, f));
    const auto pc = ccp_params(interval, lambda, at_speed(ccp_costs, f));
    const int scp = num_scp(ps);
    const int ccp = num_ccp(pc);
    ASSERT_EQ(scp, num_scp_fig2(ps))
        << "interval=" << interval << " lambda=" << lambda << " f=" << f
        << " rollback=" << rollback;
    ASSERT_EQ(ccp, num_ccp_fig2(pc))
        << "interval=" << interval << " lambda=" << lambda << " f=" << f
        << " rollback=" << rollback;
    if (overflow) {
      ASSERT_FALSE(std::isfinite(scp_expected_time(ps, 1)));
      ASSERT_FALSE(std::isfinite(ccp_expected_time(pc, 1)));
      ++non_finite;
      continue;
    }
    ASSERT_EQ(scp, num_scp_exhaustive(ps))
        << "interval=" << interval << " lambda=" << lambda << " f=" << f
        << " rollback=" << rollback;
    ASSERT_EQ(ccp, num_ccp_exhaustive(pc))
        << "interval=" << interval << " lambda=" << lambda << " f=" << f
        << " rollback=" << rollback;
  }
  EXPECT_EQ(non_finite, 200);
  EXPECT_GT(with_rollback, 40'000);
}

}  // namespace
}  // namespace adacheck::analytic
