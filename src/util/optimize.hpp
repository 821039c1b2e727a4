// Scalar minimization used by the analytic layer.
//
// The paper's Fig. 2 procedure first minimizes the renewal cost over a
// continuous sub-interval length T1 (we use golden-section search on a
// unimodal bracket) and then rounds the implied count m to the better
// of floor/ceil.  num_SCP/num_CCP search the integer counts directly
// (integer_first_local_min) and keep Fig. 2 as the reference; the
// exhaustive integer scan is the ground truth both are tested against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>

namespace adacheck::util {

struct ScalarMinimum {
  double x = 0.0;  ///< argmin
  double fx = 0.0; ///< f(argmin)
};

/// Golden-section search for the minimum of a unimodal f on [lo, hi].
/// Runs until the bracket is narrower than tol (absolute).  If f is not
/// unimodal the result is a local minimum inside the bracket.  Throws
/// std::invalid_argument on a non-finite bracket, hi < lo, or a
/// tolerance that is not finite and positive.
ScalarMinimum golden_section_minimize(const std::function<double(double)>& f,
                                      double lo, double hi,
                                      double tol = 1e-7);

struct IntegerMinimum {
  std::int64_t x = 1;
  double fx = 0.0;
};

/// Scans f over integers [lo, hi] and returns the argmin.  If
/// `early_stop_rises` > 0 the scan stops after the value has risen that
/// many consecutive times (valid shortcut for convex/unimodal costs such
/// as the renewal equations, where the tail is monotone increasing).
IntegerMinimum integer_argmin(const std::function<double(std::int64_t)>& f,
                              std::int64_t lo, std::int64_t hi,
                              int early_stop_rises = 0);

/// Exact integer search for the first local minimum of f on [lo, hi]:
/// the smallest m with f(m+1) >= f(m), or hi when f falls all the way.
/// On a unimodal sequence (falling, then non-decreasing) that is the
/// leftmost argmin, i.e. what integer_argmin returns, found in
/// O(log(m - lo)) evaluations: gallop over lo, lo+1, lo+3, lo+7, ...
/// until the sequence stops falling, then bisect the last gap.  Returns
/// nullopt as soon as f yields a non-finite value, so the caller can
/// fall back to a method that copes with inf/NaN costs.  f is taken by
/// template so the search itself never allocates.  Requires lo <= hi.
template <typename F>
std::optional<IntegerMinimum> integer_first_local_min(F&& f, std::int64_t lo,
                                                      std::int64_t hi) {
  // rises(m): the sequence does not fall from m to m+1.  False up to the
  // answer and true from it on, so the answer is its first true point.
  bool finite = true;
  IntegerMinimum at{};  // f at the last probed m
  const auto rises = [&](std::int64_t m) {
    at = {m, f(m)};
    if (!std::isfinite(at.fx)) return finite = false;
    if (m >= hi) return true;
    const double next = f(m + 1);
    if (!std::isfinite(next)) return finite = false;
    return next >= at.fx;
  };
  std::int64_t falls = lo;  // largest m known to fall
  std::int64_t probe = lo;
  while (!rises(probe)) {
    if (!finite) return std::nullopt;
    falls = probe;
    probe = std::min(hi, lo + 2 * (probe - lo) + 1);
  }
  // Bisect (falls, best.x]: rises(best.x) holds and rises(falls) does
  // not, unless the very first probe rose and falls == best.x == lo.
  IntegerMinimum best = at;
  while (best.x - falls > 1) {
    const std::int64_t mid = falls + (best.x - falls) / 2;
    const bool up = rises(mid);
    if (!finite) return std::nullopt;
    if (up) {
      best = at;
    } else {
      falls = mid;
    }
  }
  return best;
}

}  // namespace adacheck::util
