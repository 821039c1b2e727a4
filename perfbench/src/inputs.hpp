// Seeded input generation: every spec, document and submission the
// benchmark feeds the library is built here from the workload seed.
// The seed changes fault draws and document seeds, never the amount
// of work, so runs with different seeds stay comparable.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "harness/sweep.hpp"

namespace perfbench {

/// Everything one harness::run_sweep call needs.  The config runs the
/// sweep in the caller (threads = 1): on a shared 4-vCPU host, pass
/// times of the same work spread three to four times as wide with 2-4
/// threads as with one in a busy hour, and no narrower in a quiet one.
/// The pool is timed by the speedup check.
struct SweepInput {
  std::vector<adacheck::harness::ExperimentSpec> specs;
  std::vector<adacheck::harness::GraphExperimentSpec> graphs;
  adacheck::sim::MonteCarloConfig config;
};

/// All eight paper sub-tables (208 cells) under one precision budget:
/// Wilson half-width target on P, with min/max run caps.
SweepInput paper_tables_input(std::uint64_t seed);

/// Cheap schemes on a high-lambda grid crossed with every registered
/// fault environment, tails + checkpoints recorders on, plus one DAG
/// experiment whose nodes use A_D / Poisson; fixed run count.
SweepInput fault_envs_input(std::uint64_t seed);

/// Writes the campaign-cache workload's scenario files and campaign
/// document into `dir` and returns the parsed campaign (its cache
/// directory is `dir`/cache).
adacheck::campaign::CampaignSpec write_campaign_inputs(
    const std::filesystem::path& dir, std::uint64_t seed);

/// Inline scenario documents for serve submissions, one per distinct
/// per-job seed (the serve loop cycles through them).
std::vector<std::string> serve_documents(std::uint64_t seed, std::size_t count);

}  // namespace perfbench
