// The benchmark's workloads and the campaign pass.  Each one builds its
// inputs from the seed (setup, timed), then runs passes: one fixed amount of work per
// pass, timed around the library calls, with the outputs checked
// after the clock stops.  A traced pass runs the same work with spans
// and the policy decorator on.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"

namespace perfbench {

/// Workload names, in the order BENCHMARK.json lists them.  Two more
/// passes run only inside traced runs, for their layers' metrics:
/// make_workload("fault-envs"), whose end-to-end run was dropped to
/// give the other two longer runs, and make_workload("campaign-cache"),
/// whose wall time was too unsteady on a shared host to carry a bound.
inline constexpr const char* kWorkloadNames[] = {"paper-tables", "serve-loop"};

struct RunContext {
  std::uint64_t seed = 1;
  std::filesystem::path work_dir;  ///< working files (campaign documents, cache, traces)
};

/// What one pass measured and how many of its operations (cells,
/// campaign cells, jobs) it attempted and got wrong.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long long runs = 0;  ///< Monte-Carlo runs aggregated
  /// Per operation: time from the start of the pass to its result (a
  /// sweep cell's completion, a campaign cell's status line, a serve
  /// job's EOT), in milliseconds.
  std::vector<double> latencies_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and starts what the passes use; the benchmark
  /// times it.
  virtual void setup() = 0;
  /// Undoes setup(), so set-up can be timed again.
  virtual void teardown() {}
  /// Runs one pass.  The first pass's outputs become the reference
  /// that every later pass is compared with.
  virtual PassResult pass(SpanRecorder* spans) = 0;
  /// Checks made once per run, after the timed passes.
  virtual PassResult final_checks() { return {}; }
  /// Per-layer metrics the traced passes measured; `spans` holds the
  /// spans they recorded.
  virtual void layer_metrics(Metrics& out, const SpanRecorder& spans) const {
    (void)out;
    (void)spans;
  }
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& context);

/// Process CPU seconds (CLOCK_PROCESS_CPUTIME_ID).
double process_cpu_seconds();

}  // namespace perfbench
