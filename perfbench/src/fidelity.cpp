#include "fidelity.hpp"

#include <cmath>
#include <limits>

#include "util/statistics.hpp"

namespace perfbench {

double paper_z(double paper_p, std::size_t successes, std::size_t trials) {
  if (trials == 0 || !std::isfinite(paper_p) || paper_p < 0.0 ||
      paper_p > 1.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  using adacheck::util::wilson95_halfwidth;
  const auto paper_successes = static_cast<std::size_t>(
      std::llround(paper_p * static_cast<double>(kPaperRuns)));
  const double ours_se = wilson95_halfwidth(successes, trials) / 1.96;
  const double paper_se =
      wilson95_halfwidth(paper_successes, kPaperRuns) / 1.96;
  const double ours_p =
      static_cast<double>(successes) / static_cast<double>(trials);
  return std::fabs(ours_p - paper_p) /
         std::sqrt(ours_se * ours_se + paper_se * paper_se);
}

int cells_beyond(const adacheck::harness::SweepResult& sweep, double sigmas) {
  int count = 0;
  for (const auto& experiment : sweep.experiments) {
    for (std::size_t r = 0; r < experiment.cells.size(); ++r) {
      const auto& row = experiment.spec.rows[r];
      for (std::size_t s = 0; s < experiment.cells[r].size(); ++s) {
        if (s >= row.paper.size()) continue;
        const auto& completion = experiment.cells[r][s].completion;
        const double z = paper_z(row.paper[s].p, completion.successes(),
                                 completion.trials());
        if (std::isfinite(z) && z > sigmas) ++count;
      }
    }
  }
  return count;
}

}  // namespace perfbench
