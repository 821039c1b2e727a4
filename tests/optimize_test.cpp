#include "util/optimize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace adacheck::util {
namespace {

TEST(GoldenSection, FindsParabolaMinimum) {
  const auto m = golden_section_minimize(
      [](double x) { return (x - 3.0) * (x - 3.0) + 2.0; }, -10.0, 10.0);
  EXPECT_NEAR(m.x, 3.0, 1e-5);
  EXPECT_NEAR(m.fx, 2.0, 1e-9);
}

TEST(GoldenSection, HandlesBoundaryMinimum) {
  // Monotone increasing: minimum at the left edge.
  const auto m =
      golden_section_minimize([](double x) { return x; }, 2.0, 9.0);
  EXPECT_NEAR(m.x, 2.0, 1e-5);
}

TEST(GoldenSection, NonSmoothUnimodal) {
  const auto m = golden_section_minimize(
      [](double x) { return std::abs(x - 1.25); }, 0.0, 4.0);
  EXPECT_NEAR(m.x, 1.25, 1e-5);
}

TEST(GoldenSection, RejectsInvertedBracket) {
  EXPECT_THROW(
      golden_section_minimize([](double x) { return x; }, 1.0, 0.0),
      std::invalid_argument);
}

TEST(GoldenSection, RejectsBadToleranceAndBracket) {
  // Regression: tol <= 0 could spin forever once the bracket hit the
  // floating-point floor; non-finite brackets never converge.
  const auto f = [](double x) { return x * x; };
  EXPECT_THROW(golden_section_minimize(f, -1.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(golden_section_minimize(f, -1.0, 1.0, -1e-6),
               std::invalid_argument);
  EXPECT_THROW(golden_section_minimize(
                   f, -1.0, 1.0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(golden_section_minimize(
                   f, -std::numeric_limits<double>::infinity(), 1.0),
               std::invalid_argument);
  EXPECT_THROW(golden_section_minimize(
                   f, -1.0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(GoldenSection, TerminatesWhenTolBelowBracketUlp) {
  // Regression: with tol below the bracket's ULP spacing the probe
  // points round onto the endpoints and the width stops shrinking —
  // the search must stop at floating-point resolution, not spin.
  const auto m = golden_section_minimize(
      [](double x) { return (x - 1e10) * (x - 1e10); }, 1e10,
      1e10 + 1.0, 1e-7);
  EXPECT_NEAR(m.x, 1e10, 1e-5);
}

TEST(GoldenSection, CheckpointRenewalShape) {
  // The shape num_SCP minimizes: overhead/x + growth*x, minimum at
  // sqrt(overhead/growth).
  const double overhead = 22.0, growth = 0.0014;
  const auto m = golden_section_minimize(
      [&](double x) { return overhead / x + growth * x; }, 1e-3, 1e5,
      1e-6);
  EXPECT_NEAR(m.x, std::sqrt(overhead / growth), 1.0);
}

TEST(IntegerArgmin, FindsDiscreteMinimum) {
  const auto best = integer_argmin(
      [](std::int64_t m) {
        const double md = static_cast<double>(m);
        return 100.0 / md + 3.0 * md;
      },
      1, 100);
  EXPECT_EQ(best.x, 6);  // sqrt(100/3) ~ 5.77 -> 6 beats 5 here
}

TEST(IntegerArgmin, EarlyStopMatchesFullScanOnConvex) {
  const auto f = [](std::int64_t m) {
    const double md = static_cast<double>(m);
    return 400.0 / md + 1.7 * md;
  };
  const auto full = integer_argmin(f, 1, 1'000);
  const auto fast = integer_argmin(f, 1, 1'000, /*early_stop_rises=*/3);
  EXPECT_EQ(full.x, fast.x);
  EXPECT_DOUBLE_EQ(full.fx, fast.fx);
}

TEST(IntegerArgmin, SinglePointRange) {
  const auto best =
      integer_argmin([](std::int64_t) { return 7.0; }, 5, 5);
  EXPECT_EQ(best.x, 5);
  EXPECT_DOUBLE_EQ(best.fx, 7.0);
}

TEST(IntegerArgmin, RejectsEmptyRange) {
  EXPECT_THROW(integer_argmin([](std::int64_t) { return 0.0; }, 2, 1),
               std::invalid_argument);
}

/// A unimodal integer sequence with its minimum first reached at
/// `bottom`, flat for `plateau` further steps, then rising; counts
/// evaluations so tests can pin the search's cost.
struct CountingValley {
  std::int64_t bottom = 1;
  std::int64_t plateau = 0;
  int calls = 0;
  double operator()(std::int64_t m) {
    ++calls;
    if (m < bottom) return 3.0 * static_cast<double>(bottom - m);
    const std::int64_t past = m - bottom - plateau;
    return past > 0 ? 0.5 * static_cast<double>(past) : 0.0;
  }
};

int ceil_log2(std::int64_t m) {
  int bits = 0;
  while ((std::int64_t{1} << bits) < m) ++bits;
  return bits;
}

TEST(IntegerFirstLocalMin, MatchesIntegerArgminOnUnimodalSequences) {
  // Plateaus at the bottom, a minimum at the range's upper end, and
  // ranges cut short of the plateau all resolve to integer_argmin's
  // leftmost minimum.
  for (std::int64_t bottom = 1; bottom <= 300; ++bottom) {
    for (std::int64_t plateau : {0, 1, 3}) {
      for (std::int64_t hi :
           {bottom, bottom + 1, bottom + plateau + 2, 2 * bottom, 1'000L}) {
        CountingValley valley{bottom, plateau};
        const auto fast = integer_first_local_min(valley, 1, hi);
        const auto scan = integer_argmin(
            [&](std::int64_t m) { return CountingValley{bottom, plateau}(m); },
            1, hi);
        ASSERT_TRUE(fast.has_value());
        EXPECT_EQ(fast->x, scan.x) << "bottom=" << bottom << " hi=" << hi;
        EXPECT_DOUBLE_EQ(fast->fx, scan.fx);
      }
    }
  }
}

TEST(IntegerFirstLocalMin, EvaluationCountIsLogarithmic) {
  // Deterministic cost gate: gallop + bisect stays within
  // 4*ceil(log2 m*) + 4 evaluations, where an exhaustive scan needs m*.
  for (std::int64_t bottom = 1; bottom <= 4'096; ++bottom) {
    CountingValley valley{bottom, 0};
    const auto best = integer_first_local_min(valley, 1, 4'096);
    ASSERT_TRUE(best.has_value());
    ASSERT_EQ(best->x, bottom);
    ASSERT_LE(valley.calls, 4 * ceil_log2(bottom) + 4)
        << "bottom=" << bottom;
  }
}

TEST(IntegerFirstLocalMin, MonotoneFallingEndsAtUpperBound) {
  const auto best = integer_first_local_min(
      [](std::int64_t m) { return -static_cast<double>(m); }, 1, 37);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->x, 37);
  EXPECT_DOUBLE_EQ(best->fx, -37.0);
}

TEST(IntegerFirstLocalMin, HonorsLowerBoundAndSinglePointRange) {
  CountingValley valley{40, 2};
  EXPECT_EQ(integer_first_local_min(valley, 25, 90)->x, 40);
  EXPECT_EQ(integer_first_local_min(valley, 41, 90)->x, 41);  // on plateau
  EXPECT_EQ(integer_first_local_min(valley, 7, 7)->x, 7);
}

TEST(IntegerFirstLocalMin, CheckpointRenewalShape) {
  // The shape num_SCP minimizes, sampled at integers.
  const auto f = [](std::int64_t m) {
    const double md = static_cast<double>(m);
    return 400.0 / md + 1.7 * md;
  };
  const auto best = integer_first_local_min(f, 1, 1'000);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->x, integer_argmin(f, 1, 1'000).x);
}

TEST(IntegerFirstLocalMin, NonFiniteValueGivesUp) {
  // inf or NaN anywhere the search looks hands the decision back to the
  // caller instead of comparing non-finite values.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      integer_first_local_min([&](std::int64_t) { return inf; }, 1, 100));
  EXPECT_FALSE(
      integer_first_local_min([&](std::int64_t) { return nan; }, 1, 100));
  EXPECT_FALSE(integer_first_local_min(
      [&](std::int64_t m) { return m == 2 ? inf : -static_cast<double>(m); },
      1, 100));
  EXPECT_FALSE(integer_first_local_min(
      [&](std::int64_t m) { return m >= 9 ? nan : -static_cast<double>(m); },
      1, 100));
}

/// Bisection root finder for continuous f with f(lo), f(hi) of opposite
/// sign: the root to within tol.  Throws std::invalid_argument if the
/// bracket does not straddle a sign change, is non-finite, or the
/// tolerance is not finite and positive.  Only these tests use it.
double bisect_root(const std::function<double(double)>& f, double lo,
                   double hi, double tol = 1e-10) {
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    throw std::invalid_argument("bisect_root: non-finite bracket");
  }
  if (!(tol > 0.0) || !std::isfinite(tol)) {
    throw std::invalid_argument("bisect_root: tol must be finite and > 0");
  }
  double flo = f(lo), fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if (std::signbit(flo) == std::signbit(fhi)) {
    throw std::invalid_argument("bisect_root: no sign change on bracket");
  }
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    // Adjacent doubles: the midpoint rounds back onto an endpoint and
    // the bracket can never reach a tol below its ULP spacing.
    if (mid == lo || mid == hi) return mid;
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

TEST(BisectRoot, FindsSqrtTwo) {
  const double root = bisect_root(
      [](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-9);
}

TEST(BisectRoot, ExactEndpointRoot) {
  EXPECT_DOUBLE_EQ(bisect_root([](double x) { return x; }, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(bisect_root([](double x) { return x - 1.0; }, 0.0, 1.0),
                   1.0);
}

TEST(BisectRoot, RejectsBadToleranceAndBracket) {
  const auto f = [](double x) { return x; };
  EXPECT_THROW(bisect_root(f, -1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(bisect_root(f, -1.0, 1.0, -1e-12), std::invalid_argument);
  EXPECT_THROW(
      bisect_root(f, -1.0, 1.0, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      bisect_root(f, -std::numeric_limits<double>::infinity(), 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      bisect_root(f, -1.0, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(BisectRoot, TerminatesWhenTolBelowBracketUlp) {
  // Regression: on a large-magnitude bracket the midpoint eventually
  // rounds back onto an endpoint; bisection must return the resolved
  // root instead of looping on `hi - lo > tol` forever.
  const double root = bisect_root(
      [](double x) { return x - (1e12 + 0.5); }, 1e12, 1e12 + 1.0,
      1e-10);
  EXPECT_NEAR(root, 1e12 + 0.5, 1e-3);
}

TEST(BisectRoot, RejectsNoSignChange) {
  EXPECT_THROW(
      bisect_root([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace adacheck::util
