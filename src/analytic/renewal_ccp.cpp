#include "analytic/renewal_ccp.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace adacheck::analytic {

void CcpRenewalParams::validate() const {
  if (interval <= 0.0)
    throw std::invalid_argument("CcpRenewalParams: interval <= 0");
  if (lambda < 0.0) throw std::invalid_argument("CcpRenewalParams: lambda < 0");
  costs.validate();
}

namespace {
/// `growth` is ccp_growth(params); it is only read when lambda > 0.
double ccp_closed_form(const CcpRenewalParams& params, double growth,
                       double t2, double m) {
  const double mu = params.lambda;
  const double ts = params.costs.store;
  const double tcp = params.costs.compare;
  const double tr = params.costs.rollback;
  if (mu == 0.0) return m * (t2 + tcp) + ts;  // fault-free straight line
  const double q_complement = -std::expm1(-mu * t2);  // 1 - e^{-mu T2}
  return ts + (t2 + tcp) * growth / q_complement + tr * growth;
}
}  // namespace

double ccp_growth(const CcpRenewalParams& params) {
  return std::expm1(params.lambda * params.interval);
}

double ccp_expected_time(const CcpRenewalParams& params, int m) {
  params.validate();
  if (m < 1) throw std::invalid_argument("ccp_expected_time: m < 1");
  return ccp_expected_time_unchecked(params, ccp_growth(params), m);
}

double ccp_expected_time_unchecked(const CcpRenewalParams& params,
                                   double growth, int m) {
  const double md = static_cast<double>(m);
  return ccp_closed_form(params, growth, params.interval / md, md);
}

double ccp_expected_time_continuous(const CcpRenewalParams& params,
                                    double t2) {
  params.validate();
  if (!(t2 > 0.0) || t2 > params.interval) {
    throw std::invalid_argument(
        "ccp_expected_time_continuous: need 0 < T2 <= T");
  }
  return ccp_closed_form(params, ccp_growth(params), t2,
                         params.interval / t2);
}

double ccp_expected_time_recursive(const CcpRenewalParams& params, int m) {
  params.validate();
  if (m < 1) throw std::invalid_argument("m < 1");
  const double md = static_cast<double>(m);
  const double t2 = params.interval / md;
  const double mu = params.lambda;
  const double q = std::exp(-mu * t2);
  const double c = t2 + params.costs.compare;
  // One attempt: succeed (prob q^m) at cost m*c + t_s, or first fault in
  // sub-interval i (prob q^{i-1}(1-q)) at cost i*c + t_r, then retry.
  // R2 = E[attempt] / q^m.
  const double p_success = std::pow(q, md);
  if (p_success <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  double expected_attempt = p_success * (md * c + params.costs.store);
  double q_pow = 1.0;
  for (int i = 1; i <= m; ++i) {
    const double p_i = q_pow * (1.0 - q);
    // The final comparison is part of the atomic CSCP, whose store cost
    // is paid even on mismatch (the simulator's model); the paper's
    // closed form omits this O(t_s * (1-q)) term.
    const double cscp_store = i == m ? params.costs.store : 0.0;
    expected_attempt += p_i * (static_cast<double>(i) * c + cscp_store +
                               params.costs.rollback);
    q_pow *= q;
  }
  return expected_attempt / p_success;
}

}  // namespace adacheck::analytic
