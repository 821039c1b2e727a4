// Renewal-equation model of a CSCP interval with m-1 additional CCPs
// (paper §2.2, eq. (2)).
//
// Semantics: the interval of computation length T is split into m
// sub-intervals of length T2 = T/m, each ending with a CCP comparison
// (cost t_cp) except the last, which ends with the CSCP
// (cost t_cp + t_s, store skipped on mismatch).  A fault is detected at
// the first comparison after it; recovery rolls back to the interval's
// starting CSCP (nothing was stored in between) and the whole interval
// is retried.
//
// Closed form (matches the paper's eq. (2) with the t_r term restored):
// with mu = lambda (system rate), q = e^{-mu*T2}, cost-per-sub-attempt
// c = T2 + t_cp,
//
//   R2(m) = t_s + c * (e^{mu*T} - 1) / (1 - q) + t_r * (e^{mu*T} - 1).
//
// Limiting cases: R2(T2->0) = inf;
// R2(m=1) = t_s + (T + t_cp) * e^{mu*T} (+ t_r*(e^{mu*T}-1)).
#pragma once

#include "model/checkpoint.hpp"

namespace adacheck::analytic {

struct CcpRenewalParams {
  double interval = 0.0;  ///< T: CSCP interval computation length.
  double lambda = 0.0;    ///< per-processor fault rate.
  model::CheckpointCosts costs;

  void validate() const;
};

/// Closed-form expected completion time R2(m), m >= 1.
double ccp_expected_time(const CcpRenewalParams& params, int m);

/// e^{mu*T} - 1, the factor R2 shares across every m of one interval.
double ccp_growth(const CcpRenewalParams& params);

/// ccp_expected_time without the argument checks, for solvers that
/// validate `params` once and then evaluate many m >= 1; `growth` is
/// ccp_growth(params).
double ccp_expected_time_unchecked(const CcpRenewalParams& params,
                                   double growth, int m);

/// Continuous relaxation R2(T2) for the Fig. 2-style optimizer,
/// 0 < T2 <= T (evaluated without integer rounding — the closed form is
/// well-defined for real m = T/T2).
double ccp_expected_time_continuous(const CcpRenewalParams& params, double t2);

/// Renewal expectation evaluated attempt-by-attempt, modeling the
/// simulator's atomic CSCP (whose store cost is paid even on a failed
/// comparison).  Differs from the paper's closed form by at most
/// t_s * (e^{mu*T} - 1); cross-validates both in tests.
double ccp_expected_time_recursive(const CcpRenewalParams& params, int m);

}  // namespace adacheck::analytic
