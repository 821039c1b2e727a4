// util::next_up against the libm std::nextafter(x, +inf) it replaces,
// bit for bit, at the edges of the double range.
#include "util/next_up.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace adacheck::util {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_same_bits(double x) {
  SCOPED_TRACE(x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(next_up(x)),
            std::bit_cast<std::uint64_t>(std::nextafter(x, kInf)));
}

TEST(NextUp, MatchesNextafterTowardInfinity) {
  using limits = std::numeric_limits<double>;
  for (const double x :
       {0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
        limits::min(), 1.0, -1.0, 0x1.fffffffffffffp-1, 1234.5678,
        limits::max(), -limits::max(), kInf, -kInf}) {
    expect_same_bits(x);
  }
  EXPECT_EQ(next_up(0.0), limits::denorm_min());
  EXPECT_EQ(next_up(limits::max()), kInf);
  EXPECT_EQ(next_up(kInf), kInf);
  EXPECT_TRUE(std::isnan(next_up(limits::quiet_NaN())));
}

TEST(NextUp, IsUsableInConstantExpressions) {
  static_assert(next_up(1.0) == 1.0 + 0x1p-52);
  static_assert(next_up(-0x1p-1074) == 0.0);
}

}  // namespace
}  // namespace adacheck::util
