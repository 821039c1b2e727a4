// Per-layer probes: std-only timings of single calls into each layer's
// public functions, and the policy decorator that counts and times
// checkpointing decisions inside whole sweeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness/sweep.hpp"
#include "sim/policy.hpp"
#include "spans.hpp"

namespace perfbench {

/// Metric name -> value, as printed in the result line.
using Metrics = std::map<std::string, double>;

/// Decisions between timed ones when a whole sweep is decorated: the
/// clock reads would otherwise double the cost of cheap runs.
inline constexpr int kSweepTimeEvery = 16;

/// Decision tallies of every policy one TimedPolicy factory built.
struct DecisionTally {
  std::atomic<long long> runs{0};       ///< initial() calls = runs started
  std::atomic<long long> decisions{0};  ///< initial + on_fault + on_commit
  std::atomic<long long> timed{0};      ///< decisions that were timed
  std::atomic<long long> nanos{0};      ///< time inside the timed ones

  /// Mean nanoseconds per timed decision; NaN before any.
  double mean_ns() const {
    return static_cast<double>(nanos.load()) / static_cast<double>(timed.load());
  }
};

/// Forwarding ICheckpointPolicy decorator: every call goes to the
/// wrapped policy unchanged (reset() included, so the run loop keeps
/// reusing one instance per chunk).  Every decision is counted; every
/// `time_every`-th one is timed, and the tally scales the sampled time
/// up to all decisions.  Counts and time gather in the instance and
/// reach the shared tally on flush() or destruction, so decorated
/// policies on many workers do not contend on it.  With a span
/// recorder and a parent span set, each timed decision is also
/// recorded as a child span.
class TimedPolicy final : public adacheck::sim::ICheckpointPolicy {
 public:
  TimedPolicy(std::unique_ptr<adacheck::sim::ICheckpointPolicy> inner,
              DecisionTally& tally, int time_every = 1,
              SpanRecorder* spans = nullptr);
  ~TimedPolicy() override { flush(); }
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  /// Parent span for decision spans recorded from now on.
  void set_parent_span(std::uint64_t parent) noexcept { parent_ = parent; }

  /// Adds what this instance counted to the shared tally.
  void flush();

  std::string name() const override { return inner_->name(); }
  bool reset() override { return inner_->reset(); }
  adacheck::sim::Decision initial(
      const adacheck::sim::ExecContext& ctx) override;
  adacheck::sim::Decision on_fault(
      const adacheck::sim::ExecContext& ctx) override;
  std::optional<adacheck::sim::Decision> on_commit(
      const adacheck::sim::ExecContext& ctx) override;

 private:
  template <class Call>
  auto decide(Call&& call);

  std::unique_ptr<adacheck::sim::ICheckpointPolicy> inner_;
  DecisionTally& tally_;
  int time_every_;
  SpanRecorder* spans_;
  std::uint64_t parent_ = 0;
  long long runs_ = 0, decisions_ = 0, timed_ = 0, nanos_ = 0;
};

/// harness::run_sweep with every classic cell's policy wrapped in
/// TimedPolicy, timing one decision in kSweepTimeEvery (tallied per
/// scheme name; `tallies` must already hold
/// an entry for each scheme the specs name).  Graph cells run
/// unchanged.  The cell results, and so every report and JSONL byte,
/// equal run_sweep's.
adacheck::harness::SweepResult run_sweep_timed(
    const std::vector<adacheck::harness::ExperimentSpec>& specs,
    const std::vector<adacheck::harness::GraphExperimentSpec>& graphs,
    const adacheck::sim::MonteCarloConfig& config,
    const adacheck::harness::SweepOptions& options,
    std::map<std::string, DecisionTally>& tallies);

/// analytic.*: num_scp / num_ccp over a grid spanning the paper
/// tables and at bench_micro's 125/500/2000 intervals, and A_D's
/// closed-form interval.
void probe_analytic(Metrics& out);

/// sim.* and policy.*: one simulate_seeded per scheme on a fixed paper
/// cell (untimed decisions for engine_run_us, traced for self time and
/// decision costs), RunResult counts, and a MetricSet chunk merge.
void probe_engine(Metrics& out, SpanRecorder& spans);

/// model.fault_next_ns.<env> and util.rng_exponential_ns.
void probe_faults(Metrics& out);

/// sched.graph_instance_us: one run_graph_executive instance.
void probe_graph(Metrics& out);

/// harness.* / util.*: report and JSONL emission of a sweep result,
/// and canonical JSON and content hashing of its report.
void probe_emit(Metrics& out, const adacheck::harness::SweepResult& sweep);

/// scenario.parse_us / scenario.bind_us of one scenario document.
void probe_scenario(Metrics& out, const std::string& document);

}  // namespace perfbench
