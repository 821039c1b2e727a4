#include "analytic/renewal_scp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adacheck::analytic {

void ScpRenewalParams::validate() const {
  if (interval <= 0.0)
    throw std::invalid_argument("ScpRenewalParams: interval <= 0");
  if (lambda < 0.0) throw std::invalid_argument("ScpRenewalParams: lambda < 0");
  costs.validate();
}

double scp_expected_time(const ScpRenewalParams& params, int m) {
  params.validate();
  if (m < 1) throw std::invalid_argument("scp_expected_time: m < 1");
  return scp_expected_time_unchecked(params, m);
}

double scp_expected_time_unchecked(const ScpRenewalParams& params, int m) {
  const double T = params.interval;
  const double t1 = T / static_cast<double>(m);
  const double ts = params.costs.store;
  const double tcp = params.costs.compare;
  const double tr = params.costs.rollback;
  const double mu = params.lambda;  // duplex-system fault rate
  const double q = std::exp(-mu * t1);    // P(sub-interval fault-free)

  if (q >= 1.0) {
    // No faults: straight-line cost of m sub-intervals + overheads.
    return T + static_cast<double>(m) * ts + tcp;
  }

  // G[r] = expected time to complete the last r sub-intervals (ending
  // with the CSCP).  q*G(r) = S(r) + (1-q^r)*t_r
  //                           + (1-q)*sum_{j=1..r-1} q^j * G(r-j).
  // Evaluate bottom-up; maintain W(r) = sum_{j=1..r-1} q^j G(r-j)
  // incrementally: W(r+1) = q*(W(r) + q^0*... ) — note
  // W(r+1) = sum_{j=1..r} q^j G(r+1-j) = q * sum_{i=0..r-1} q^i G(r-i)
  //        = q * (G(r) + W(r)).
  // Only G(r) and W(r) feed step r+1, so two scalars carry it.
  double G = 0.0;  // G(r) for current r
  double W = 0.0;  // W(r) for current r
  double q_pow_r = 1.0;
  for (int r = 1; r <= m; ++r) {
    q_pow_r *= q;
    const double S = static_cast<double>(r) * (t1 + ts) + tcp;
    const double rhs = S + (1.0 - q_pow_r) * tr + (1.0 - q) * W;
    G = rhs / q;
    W = q * (G + W);
  }
  return G;
}

double scp_expected_time_continuous(const ScpRenewalParams& params,
                                    double t1) {
  params.validate();
  if (!(t1 > 0.0) || t1 > params.interval) {
    throw std::invalid_argument(
        "scp_expected_time_continuous: need 0 < T1 <= T");
  }
  // The recursion is only defined at integer m; interpolate linearly
  // between the bracketing counts so the relaxation is continuous and
  // unimodal-friendly for the golden-section search of Fig. 2.
  const double ratio = params.interval / t1;
  const int m_floor = std::max(1, static_cast<int>(std::floor(ratio)));
  const double frac = std::max(0.0, ratio - static_cast<double>(m_floor));
  const double at_floor = scp_expected_time(params, m_floor);
  if (frac < 1e-12) return at_floor;
  const double at_ceil = scp_expected_time(params, m_floor + 1);
  return (1.0 - frac) * at_floor + frac * at_ceil;
}

}  // namespace adacheck::analytic
