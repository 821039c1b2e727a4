// The next representable double above x: std::nextafter(x, +inf) bit
// for bit, inline and without libm.  The engine steps its fault cursor
// past each collected fault with it.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace adacheck::util {

constexpr double next_up(double x) noexcept {
  // +inf and NaN map to themselves.
  if (!(x < std::numeric_limits<double>::infinity())) return x;
  // Both zeros step to the smallest subnormal.
  if (x == 0.0) return std::numeric_limits<double>::denorm_min();
  // IEEE-754 doubles of one sign are ordered like their bit patterns:
  // up is one more magnitude step for x > 0, one less for x < 0.
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return std::bit_cast<double>(x > 0.0 ? bits + 1 : bits - 1);
}

}  // namespace adacheck::util
