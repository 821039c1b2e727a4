// Sample summaries for the benchmark's repeated measurements.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of the samples (mean of the middle two for even counts);
/// NaN when empty.
double median(std::vector<double> samples);

/// First and third quartiles by the same rule as Python's
/// statistics.quantiles(samples, n=4) (the "exclusive" method), so the
/// spreads printed here match what an outside script computes.  Needs
/// at least two samples.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> samples);

/// Samples strictly above the nearest-rank p-th percentile of n
/// samples: n - ceil(n * p / 100).
std::size_t samples_beyond(std::size_t n, double percentile);

/// The reporting rule for a latency tail: the highest percentile of
/// the ladder 50, 90, 99, 99.9 that still has at least ten samples
/// beyond it; nullopt when even the median has fewer than ten.
std::optional<double> reportable_percentile(std::size_t n);

/// Nearest-rank p-th percentile (p in (0, 100]); NaN when empty.
double percentile(std::vector<double> samples, double p);

/// Median, quartiles, sample count and the reportable tail of one
/// metric's samples, for the human-readable table.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::optional<double> tail_percentile;
  double tail_value = 0.0;
};
Summary summarize(const std::vector<double>& samples);

}  // namespace perfbench
