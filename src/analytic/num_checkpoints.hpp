// The paper's Fig. 2 procedure: choose the number m of sub-intervals
// (i.e. m-1 additional SCPs or CCPs) inside a CSCP interval of length T
// that minimizes the renewal expected time R1(m) / R2(m).
//
// Fig. 2 first finds the continuous minimizer T1~ of R1 over (0, T]
// (we use golden-section search — both R1 and R2 are unimodal in the
// sub-interval length: cost explodes at T1 -> 0 from per-checkpoint
// overhead and grows at T1 -> T from re-execution exposure), then
// rounds m = T/T1~ to the better of floor/ceil.  Because R(m) is
// unimodal, that rounded m is the first integer where R stops falling,
// so num_scp/num_ccp find it directly with an exact integer search
// (O(log m) evaluations of R instead of Fig. 2's ~88) and return the
// identical m.  num_*_fig2 keep the paper's procedure as the reference
// and as the fallback when R is not finite (lambda*T in the hundreds,
// where the costs overflow and only Fig. 2's tie-breaking among inf
// values defines the answer).  num_*_exhaustive scan every integer and
// are the ground truth both are tested against.
#pragma once

#include "analytic/renewal_ccp.hpp"
#include "analytic/renewal_scp.hpp"

namespace adacheck::analytic {

/// Caps the largest m considered; sub-intervals shorter than the
/// cheapest checkpoint operation are never useful.
int max_sub_intervals(double interval, const model::CheckpointCosts& costs);

/// num_SCP: returns m >= 1 minimizing R1(m) — Fig. 2's answer, found
/// by integer search (Fig. 2 itself when R1 is not finite).
int num_scp(const ScpRenewalParams& params);

/// num_CCP: returns m >= 1 minimizing R2(m), as num_scp does for R1.
int num_ccp(const CcpRenewalParams& params);

/// The paper's Fig. 2 procedure, unchanged: golden-section search on
/// the continuous relaxation, then round to the better neighbor.
int num_scp_fig2(const ScpRenewalParams& params);
int num_ccp_fig2(const CcpRenewalParams& params);

/// Exhaustive integer argmin over [1, max_sub_intervals] — ground truth
/// for tests and the ablation bench.
int num_scp_exhaustive(const ScpRenewalParams& params);
int num_ccp_exhaustive(const CcpRenewalParams& params);

}  // namespace adacheck::analytic
