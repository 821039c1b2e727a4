// Distance of measured paper-table cells from the paper's reported P.
#pragma once

#include <cstddef>

#include "harness/sweep.hpp"

namespace perfbench {

/// Run count the paper's values are assumed to come from (the paper
/// repeats every cell 10,000 times).
inline constexpr std::size_t kPaperRuns = 10'000;

/// |P_ours - P_paper| in units of the combined standard error, each
/// side's error taken from its Wilson 95% interval (half-width / 1.96):
/// ours at its own run count, the paper's at kPaperRuns.  NaN when
/// either side has no data.
double paper_z(double paper_p, std::size_t successes, std::size_t trials);

/// Cells of the sweep's classic experiments whose P lies more than
/// `sigmas` standard errors from the paper's P (cells without a
/// finite paper P are skipped).
int cells_beyond(const adacheck::harness::SweepResult& sweep, double sigmas);

}  // namespace perfbench
