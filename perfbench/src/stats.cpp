#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Quartiles quartiles(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < 2) {
    const double v = n == 1 ? samples[0]
                            : std::numeric_limits<double>::quiet_NaN();
    return {v, v};
  }
  std::sort(samples.begin(), samples.end());
  // statistics.quantiles, method="exclusive": m = n + 1, the i-th cut
  // point sits at position i * m / 4 (1-based), interpolated.
  auto cut = [&](int i) {
    const double pos = static_cast<double>(i) * static_cast<double>(n + 1) / 4.0;
    const auto j = static_cast<std::size_t>(
        std::clamp(std::floor(pos), 1.0, static_cast<double>(n - 1)));
    const double delta = pos - static_cast<double>(j);
    return samples[j - 1] + (samples[j] - samples[j - 1]) * delta;
  };
  return {cut(1), cut(3)};
}

std::size_t samples_beyond(std::size_t n, double percentile) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * percentile / 100.0 - 1e-9));
  return rank >= n ? 0 : n - rank;
}

std::optional<double> reportable_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return std::nullopt;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.median = median(samples);
  const Quartiles q = quartiles(samples);
  s.q1 = q.q1;
  s.q3 = q.q3;
  s.tail_percentile = reportable_percentile(s.n);
  if (s.tail_percentile) s.tail_value = percentile(samples, *s.tail_percentile);
  return s;
}

}  // namespace perfbench
