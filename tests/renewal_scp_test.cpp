#include "analytic/renewal_scp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace adacheck::analytic {
namespace {

ScpRenewalParams paper_params(double interval = 125.0,
                              double lambda = 1.4e-3) {
  ScpRenewalParams p;
  p.interval = interval;
  p.lambda = lambda;
  p.costs = model::CheckpointCosts::paper_scp_flavor();
  return p;
}

TEST(ScpRenewal, SingleSubIntervalMatchesClosedForm) {
  // R1(1) = (T + t_s + t_cp) * e^{lambda*T} exactly (t_r = 0).
  const auto p = paper_params(200.0, 2e-3);
  const double expected =
      (200.0 + 22.0) * std::exp(2e-3 * 200.0);
  EXPECT_NEAR(scp_expected_time(p, 1), expected, 1e-9);
}

TEST(ScpRenewal, FaultFreeIsStraightLine) {
  auto p = paper_params(100.0, 0.0);
  for (int m : {1, 2, 5}) {
    EXPECT_NEAR(scp_expected_time(p, m),
                100.0 + m * p.costs.store + p.costs.compare, 1e-9)
        << "m=" << m;
  }
}

TEST(ScpRenewal, AlwaysAboveFaultFreeCost) {
  const auto p = paper_params();
  for (int m = 1; m <= 30; ++m) {
    const double fault_free =
        p.interval + m * p.costs.store + p.costs.compare;
    EXPECT_GT(scp_expected_time(p, m), fault_free) << "m=" << m;
  }
}

TEST(ScpRenewal, DivergesAsSubIntervalsExplode) {
  // T1 -> 0 means unbounded SCP overhead: R1 grows without bound in m.
  const auto p = paper_params();
  EXPECT_GT(scp_expected_time(p, 4'000), scp_expected_time(p, 40));
}

TEST(ScpRenewal, InnerCheckpointsHelpAtHighRisk) {
  // With a long interval and high lambda, splitting the interval must
  // reduce expected time (the paper's whole point): re-execution after
  // a fault restarts from the last SCP instead of the interval start.
  auto p = paper_params(800.0, 5e-3);
  EXPECT_LT(scp_expected_time(p, 4), scp_expected_time(p, 1));
}

TEST(ScpRenewal, MonotoneInLambda) {
  const auto lo = paper_params(300.0, 1e-4);
  const auto hi = paper_params(300.0, 5e-3);
  for (int m : {1, 3, 8}) {
    EXPECT_LT(scp_expected_time(lo, m), scp_expected_time(hi, m));
  }
}

TEST(ScpRenewal, RollbackCostAddsExpectedPenalty) {
  auto base = paper_params(300.0, 2e-3);
  auto with_tr = base;
  with_tr.costs.rollback = 50.0;
  for (int m : {1, 4}) {
    EXPECT_GT(scp_expected_time(with_tr, m), scp_expected_time(base, m));
  }
}

TEST(ScpRenewal, ContinuousEvaluatorRoundsToInteger) {
  const auto p = paper_params(120.0, 1e-3);
  // T1 = T/3 exactly -> same as m = 3.
  EXPECT_NEAR(scp_expected_time_continuous(p, 40.0),
              scp_expected_time(p, 3), 1e-9);
  // T1 = T -> m = 1.
  EXPECT_NEAR(scp_expected_time_continuous(p, 120.0),
              scp_expected_time(p, 1), 1e-9);
}

/// First-order closed form of R1(m) for a small fault probability per
/// interval: R1(m) ~ S(m) + (1 - q^m)*(t_r + expected re-execution).
double scp_expected_time_first_order(const ScpRenewalParams& params, int m) {
  const double T = params.interval;
  const double md = static_cast<double>(m);
  const double t1 = T / md;
  const double q = std::exp(-params.lambda * t1);
  const double S = T + md * params.costs.store + params.costs.compare;
  // One fault in sub-interval j costs a rollback plus re-execution of
  // the (m - j + 1) trailing sub-intervals and the CSCP; averaging j
  // uniformly (first-order in mu*T) gives (m+1)/2 sub-intervals redone.
  const double p_fault = 1.0 - std::pow(q, md);
  const double redo = 0.5 * (md + 1.0) * (t1 + params.costs.store) +
                      params.costs.compare + params.costs.rollback;
  return S + p_fault * redo;
}

TEST(ScpRenewal, FirstOrderApproxAgreesAtLowRisk) {
  // For lambda*T << 1 the first-order model should be within ~1%.
  const auto p = paper_params(50.0, 1e-4);
  for (int m : {1, 2, 4}) {
    const double exact = scp_expected_time(p, m);
    const double approx = scp_expected_time_first_order(p, m);
    EXPECT_NEAR(approx / exact, 1.0, 0.01) << "m=" << m;
  }
}

TEST(ScpRenewal, ValidatesArguments) {
  auto p = paper_params();
  EXPECT_THROW(scp_expected_time(p, 0), std::invalid_argument);
  EXPECT_THROW(scp_expected_time_continuous(p, 0.0), std::invalid_argument);
  EXPECT_THROW(scp_expected_time_continuous(p, p.interval * 2.0),
               std::invalid_argument);
  p.interval = -1.0;
  EXPECT_THROW(scp_expected_time(p, 1), std::invalid_argument);
  p = paper_params();
  p.lambda = -1.0;
  EXPECT_THROW(scp_expected_time(p, 1), std::invalid_argument);
}

// Brute-force Monte-Carlo of the SCP semantics, independent of the
// engine, to validate the renewal recursion itself.
double simulate_scp_interval(const ScpRenewalParams& p, int m,
                             std::uint64_t seed, int reps) {
  util::Xoshiro256 rng(seed);
  const double t1 = p.interval / m;
  const double ts = p.costs.store, tcp = p.costs.compare,
               tr = p.costs.rollback;
  const double q = std::exp(-p.lambda * t1);
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    int next = 1;  // first sub-interval still to complete
    for (;;) {
      // Execute sub-intervals next..m, then the CSCP.
      int first_fault = 0;
      for (int i = next; i <= m; ++i) {
        total += t1;
        if (rng.uniform01() > q && first_fault == 0) first_fault = i;
        total += i < m ? ts : ts + tcp;
      }
      if (first_fault == 0) break;
      total += tr;
      next = first_fault;  // roll back to SCP (first_fault - 1)
    }
  }
  return total / reps;
}

TEST(ScpRenewal, RecursionMatchesDirectSimulation) {
  const auto p = paper_params(400.0, 3e-3);
  for (int m : {1, 2, 5}) {
    const double analytic = scp_expected_time(p, m);
    const double simulated = simulate_scp_interval(p, m, 777, 200'000);
    EXPECT_NEAR(simulated / analytic, 1.0, 0.02) << "m=" << m;
  }
}

}  // namespace
}  // namespace adacheck::analytic
