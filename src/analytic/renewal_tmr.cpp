#include "analytic/renewal_tmr.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analytic/num_checkpoints.hpp"
#include "util/optimize.hpp"

namespace adacheck::analytic {

void TmrRenewalParams::validate() const {
  if (interval <= 0.0)
    throw std::invalid_argument("TmrRenewalParams: interval <= 0");
  if (lambda < 0.0) throw std::invalid_argument("TmrRenewalParams: lambda < 0");
  costs.validate();
}

TmrWindowOdds tmr_window_odds(double expected_faults) {
  if (expected_faults < 0.0) {
    throw std::invalid_argument("tmr_window_odds: negative exposure");
  }
  TmrWindowOdds odds;
  odds.clean = std::exp(-expected_faults);
  // P(>=1 fault, all on one of the three replicas): sum over n>=1 of
  // Pois(n) * 3 * (1/3)^n = 3 (e^{-2x/3} - e^{-x}).
  odds.single =
      3.0 * (std::exp(-2.0 * expected_faults / 3.0) - odds.clean);
  odds.majority_lost = 1.0 - odds.clean - odds.single;
  if (odds.majority_lost < 0.0) odds.majority_lost = 0.0;  // rounding
  return odds;
}

double tmr_ccp_expected_time(const TmrRenewalParams& params, int m) {
  params.validate();
  if (m < 1) throw std::invalid_argument("tmr_ccp_expected_time: m < 1");
  const double md = static_cast<double>(m);
  const double t2 = params.interval / md;
  const double tcp = params.costs.compare;
  const double ts = params.costs.store;
  const double tr = params.costs.rollback;
  const auto odds = tmr_window_odds(params.lambda * t2);
  const double p_fail = odds.majority_lost;
  const double p_pass = 1.0 - p_fail;
  if (p_pass <= 0.0) return std::numeric_limits<double>::infinity();
  // Expected vote-corrections per passed sub-interval.
  const double g = odds.single / p_pass;
  const double c = t2 + tcp;

  double expected_attempt = 0.0;
  double pass_pow = 1.0;  // p_pass^{i-1}
  for (int i = 1; i <= m; ++i) {
    const double di = static_cast<double>(i);
    const double p_i = pass_pow * p_fail;  // majority lost at sub i
    const double cscp_store = i == m ? ts : 0.0;
    expected_attempt +=
        p_i * (di * c + cscp_store + tr + (di - 1.0) * g * tr);
    pass_pow *= p_pass;
  }
  // pass_pow is now p_pass^m: full success.
  expected_attempt += pass_pow * (md * c + ts + md * g * tr);
  return expected_attempt / pass_pow;
}

double tmr_scp_expected_time(const TmrRenewalParams& params, int m) {
  params.validate();
  if (m < 1) throw std::invalid_argument("tmr_scp_expected_time: m < 1");
  const double t1 = params.interval / static_cast<double>(m);
  const double ts = params.costs.store;
  const double tcp = params.costs.compare;
  const double tr = params.costs.rollback;
  const auto odds = tmr_window_odds(params.lambda * t1);
  // Per-window Markov transitions over {0 corrupt, 1 corrupt, lost}.
  const double stay1 = std::exp(-2.0 * params.lambda * t1 / 3.0);

  // pi0[j], pi1[j]: state distribution after j windows (absorbing loss);
  // b[j]: probability the majority is first lost in window j; G below.
  // The four tables share one buffer, inline for the small m an
  // adaptive decision probes so re-planning stays off the heap.
  const auto len = static_cast<std::size_t>(m) + 1;
  constexpr std::size_t kInlineLen = 65;
  std::array<double, 4 * kInlineLen> inline_tables{};
  std::vector<double> spilled;
  double* tables = inline_tables.data();
  if (len > kInlineLen) {
    spilled.assign(4 * len, 0.0);
    tables = spilled.data();
  }
  double* const pi0 = tables;
  double* const pi1 = tables + len;
  double* const b = tables + 2 * len;
  double* const G = tables + 3 * len;
  pi0[0] = 1.0;
  for (int j = 1; j <= m; ++j) {
    const auto js = static_cast<std::size_t>(j);
    pi0[js] = pi0[js - 1] * odds.clean;
    pi1[js] = pi0[js - 1] * odds.single + pi1[js - 1] * stay1;
    b[js] = (pi0[js - 1] + pi1[js - 1]) - (pi0[js] + pi1[js]);
  }

  // G(r): expected time to complete the last r sub-intervals, entering
  // consistent.  Detection happens only at the CSCP, so a failed
  // attempt still pays the full S(r); the prefix before the loss
  // boundary is committed (its SCPs hold a 2-of-3 majority).
  //   G(r) = S(r) + pi1(r)*t_r
  //        + sum_{j=1..r} b_j * (t_r + G(r-j+1)).
  for (int r = 1; r <= m; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    const double S = static_cast<double>(r) * (t1 + ts) + tcp;
    double rhs = S + pi1[rs] * tr;
    for (int j = 2; j <= r; ++j) {
      const auto js = static_cast<std::size_t>(j);
      rhs += b[js] * (tr + G[static_cast<std::size_t>(r - j + 1)]);
    }
    rhs += b[1] * tr;  // j = 1 term's non-recursive part
    const double denom = 1.0 - b[1];
    if (denom <= 0.0) return std::numeric_limits<double>::infinity();
    G[rs] = rhs / denom;
  }
  return G[static_cast<std::size_t>(m)];
}

int num_scp_tmr(const TmrRenewalParams& params) {
  params.validate();
  const int m_max = max_sub_intervals(params.interval, params.costs);
  const auto best = util::integer_argmin(
      [&](std::int64_t m) {
        return tmr_scp_expected_time(params, static_cast<int>(m));
      },
      1, m_max, /*early_stop_rises=*/8);
  return static_cast<int>(best.x);
}

int num_ccp_tmr(const TmrRenewalParams& params) {
  params.validate();
  const int m_max = max_sub_intervals(params.interval, params.costs);
  const auto best = util::integer_argmin(
      [&](std::int64_t m) {
        return tmr_ccp_expected_time(params, static_cast<int>(m));
      },
      1, m_max, /*early_stop_rises=*/8);
  return static_cast<int>(best.x);
}

}  // namespace adacheck::analytic
