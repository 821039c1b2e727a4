// Pluggable per-run metric recorders.
//
// The results pipeline is an open API: a cell's aggregation is a
// MetricSet — an ordered list of IMetricRecorder instances that each
// observe every RunResult, merge with same-typed peers in run-index
// order, and emit named values.  Slot 0 is always the built-in
// CellStatsRecorder, which reimplements the paper's CellStats fields
// (P, E, and the extended accumulators) with bit-identical values at
// any thread count; everything after slot 0 comes from the cell's
// MetricSuite — the recipe named in MonteCarloConfig::metrics (and in
// a scenario's "metrics" array).
//
// Determinism contract: recorders are created per chunk, observe runs
// in ascending run-index order within the chunk, and are merged in
// chunk-index order.  A recorder whose merge is exact for that order
// (integer tallies, or the same Chan merges CellStats uses) therefore
// produces identical values for threads = 1 and threads = N.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/run_result.hpp"
#include "util/statistics.hpp"

namespace adacheck::sim {

/// Fixed chunk grain for Monte-Carlo aggregation: partial merges (and
/// the budget evaluator's stopping boundaries) happen per chunk in
/// index order, so any change here changes rounding (not correctness).
/// 256 runs keeps >= 39 chunks for the paper's 10,000-run cells —
/// enough parallelism without drowning the queue.
inline constexpr int kRunChunk = 256;

/// Precision targets for sequential stopping.  When enabled() (any
/// target set), a cell runs its seed-indexed kRunChunk-run chunks in
/// rounds — its floor first, then ceil(P / live cells) more chunks per
/// round for P-way parallelism, so one chunk at a time in the caller —
/// until every set target is met at a chunk boundary, instead of a
/// fixed MonteCarloConfig::runs count.  The stop rule depends only on
/// the completed-chunk prefix in index order — never on thread
/// scheduling or round sizes — so budgeted results are bit-identical
/// across thread counts.
struct RunBudget {
  /// Stop once the Wilson 95% half-width of P is at or below this
  /// (equivalently of P(miss): the interval is swap-symmetric).
  /// 0 = no probability target.
  double target_p_halfwidth = 0.0;
  /// Stop once E[energy | success]'s 95% CI half-width divided by the
  /// mean is at or below this.  0 = no energy target.
  double target_e_rel_halfwidth = 0.0;
  /// Never stop before this many runs; 0 = one chunk (kRunChunk).
  int min_runs = 0;
  /// Hard cap; 0 = the config's fixed `runs` count.
  int max_runs = 0;

  /// A budget participates in scheduling only when a target is set.
  bool enabled() const noexcept {
    return target_p_halfwidth > 0.0 || target_e_rel_halfwidth > 0.0;
  }
  /// The hard cap this budget resolves to for a cell whose fixed count
  /// is `fixed_runs`.
  int resolved_max(int fixed_runs) const noexcept {
    return max_runs > 0 ? max_runs : fixed_runs;
  }
  /// The floor, clamped to the cap so min/max never cross at runtime.
  int resolved_min(int fixed_runs) const noexcept {
    const int floor = min_runs > 0 ? min_runs : kRunChunk;
    const int cap = resolved_max(fixed_runs);
    return floor < cap ? floor : cap;
  }
  /// Throws std::invalid_argument on non-finite or negative targets,
  /// negative caps, min_runs > max_runs (both set), or caps set
  /// without any target (a cap-only budget silently degenerating to
  /// the fixed path would hide a config mistake).
  void validate() const;
};
struct CellStats {
  util::BinomialStats completion;        ///< P
  util::RunningStats energy_success;     ///< E (paper's definition)
  util::RunningStats energy_all;         ///< energy over every run
  util::RunningStats finish_time_success;
  util::RunningStats faults;             ///< physical faults per run
  util::RunningStats rollbacks;
  util::RunningStats corrections;        ///< TMR vote repairs per run
  util::RunningStats high_speed_cycles;  ///< cycles above the base speed
  std::size_t aborted_runs = 0;
  std::size_t validation_failures = 0;

  double probability() const noexcept { return completion.proportion(); }
  /// Paper's E: NaN when no run succeeded (the tables print "NaN").
  double energy() const noexcept { return energy_success.mean(); }

  void merge(const CellStats& other) noexcept;
};

/// Streaming budget evaluator: absorbs completed chunks' CellStats in
/// index order (Welford/Chan merges for energy, exact counter merges
/// for completion) and answers the stop question at each chunk
/// boundary.  Lives beside the recorders because the run loop feeds it
/// the same per-chunk partials it merges into the cell result — the
/// decision stream and the reported statistics can never diverge.
class PrecisionRecorder {
 public:
  /// An inert recorder (should_stop() always true).  Exists so
  /// containers can be default-constructed.
  PrecisionRecorder() = default;
  /// Evaluator for one cell; `fixed_runs` is the cell's
  /// MonteCarloConfig::runs, used to resolve the budget's caps.
  PrecisionRecorder(const RunBudget& budget, int fixed_runs);

  /// Folds one completed chunk's statistics in; chunks must arrive in
  /// run-index order (same contract as MetricSet::merge).
  void absorb(const CellStats& chunk);

  /// Runs absorbed so far.
  std::size_t runs() const noexcept { return completion_.trials(); }
  /// True once every set target is met.  NaN half-widths (no trials,
  /// or fewer than two successful runs for the energy target) never
  /// satisfy a target.
  bool targets_met() const noexcept;
  /// The stop rule: at or past the floor AND (targets met OR at the
  /// cap).
  bool should_stop() const noexcept;

  /// Achieved Wilson 95% half-width on P; NaN before any runs.
  double p_halfwidth() const noexcept {
    return completion_.wilson_halfwidth();
  }
  /// Achieved relative 95% half-width on E[energy | success]; NaN
  /// until two successful runs exist.
  double e_rel_halfwidth() const noexcept {
    return energy_.rel_ci95_halfwidth();
  }

 private:
  RunBudget budget_;
  std::size_t min_ = 0;
  std::size_t max_ = 0;
  util::BinomialStats completion_;
  util::RunningStats energy_;
};

/// Opaque workload-specific payload a custom chunk runner can attach
/// to a RunView (RunView::detail).  Recorders that know the concrete
/// type downcast; everything else (including the built-in
/// CellStatsRecorder) ignores it.
struct IRunDetail {
  virtual ~IRunDetail() = default;
};

/// One simulated run as seen by recorders: the engine's RunResult plus
/// the loop-level context recorders need (the setup, the base
/// frequency the default recorder compares speeds against, and the
/// validator verdict when validation is enabled).
struct RunView {
  const SimSetup& setup;
  const RunResult& result;
  double base_frequency = 1.0;    ///< setup.processor.slowest().frequency
  bool validation_failed = false; ///< only meaningful with config.validate
  /// Workload payload for custom recorders; null for classic cells.
  const IRunDetail* detail = nullptr;
};

/// Snapshot of a MetricSet's emitted values: one named group per
/// recorder (beyond the built-in slot 0), each an ordered list of
/// (key, value) pairs.  Copyable — this is what reports and observers
/// carry around after the move-only recorders are gone.
struct MetricValues {
  struct Entry {
    std::string key;
    double value = 0.0;
  };
  struct Group {
    std::string recorder;
    std::vector<Entry> entries;
  };
  std::vector<Group> groups;

  bool empty() const noexcept { return groups.empty(); }
  /// Looks up one value; nullptr when the group or key is absent.
  const double* find(std::string_view recorder, std::string_view key) const;
};

/// One streaming metric over a cell's runs.  Implementations must obey
/// the determinism contract in the file comment: observe() is called
/// once per run in ascending run-index order within a chunk, merge()
/// receives a peer built by the same factory covering the immediately
/// following run-index range, and emit() appends (key, value) entries
/// in a fixed order.
class IMetricRecorder {
 public:
  virtual ~IMetricRecorder() = default;

  /// Stable identifier; the group name in reports.
  virtual std::string_view name() const = 0;
  virtual void observe(const RunView& run) = 0;
  /// Merges a same-typed peer that observed the runs immediately after
  /// this recorder's.  Implementations may downcast; the runner
  /// guarantees the peer came from the same suite slot.
  virtual void merge(const IMetricRecorder& peer) = 0;
  /// Appends this recorder's named values to `out.entries`
  /// (out.recorder is already set to name()).
  virtual void emit(MetricValues::Group& out) const = 0;
};

/// Builds a fresh recorder for one cell.  The setup is the cell's —
/// factories read bounds (deadline, speed levels) from it so
/// fixed-range accumulators like histograms can be sized upfront.
using MetricRecorderFactory =
    std::function<std::unique_ptr<IMetricRecorder>(const SimSetup& setup)>;

/// An immutable recipe for the extra recorders of a cell, shared by
/// every chunk of every cell that uses it (via
/// MonteCarloConfig::metrics).  Compose with add(); instantiate() is
/// called once per chunk.
class MetricSuite {
 public:
  MetricSuite& add(std::string name, MetricRecorderFactory factory);

  bool empty() const noexcept { return factories_.empty(); }
  std::size_t size() const noexcept { return factories_.size(); }
  /// Registry names in slot order (reports list these in "config").
  const std::vector<std::string>& names() const noexcept { return names_; }

  std::vector<std::unique_ptr<IMetricRecorder>> instantiate(
      const SimSetup& setup) const;

 private:
  std::vector<std::string> names_;
  std::vector<MetricRecorderFactory> factories_;
};

/// The built-in default recorder: today's CellStats, observed exactly
/// as the pre-redesign run loop did (same operations, same order), so
/// the merged values are bit-identical to the seed implementation.
class CellStatsRecorder final : public IMetricRecorder {
 public:
  std::string_view name() const override { return "cell_stats"; }
  void observe(const RunView& run) override;
  void merge(const IMetricRecorder& peer) override;
  /// Emits nothing: CellStats values are the report's first-class cell
  /// fields (p, e, ...), not a named metrics group.
  void emit(MetricValues::Group& out) const override;

  const CellStats& stats() const noexcept { return stats_; }
  CellStats& stats() noexcept { return stats_; }

 private:
  CellStats stats_;
};

/// Finish-time / energy distributions with tail quantiles ("tails").
/// Finish time (successful runs) is binned over [0, deadline]; energy
/// (all runs) over [0, V(f_max)^2 * f_max * deadline] — the maximum
/// energy a run bounded by the deadline can dissipate.  Integer bin
/// tallies merge exactly, so quantiles are bit-identical at any thread
/// count.
class TailRecorder final : public IMetricRecorder {
 public:
  static constexpr std::size_t kBins = 64;

  explicit TailRecorder(const SimSetup& setup);

  std::string_view name() const override { return "tails"; }
  void observe(const RunView& run) override;
  void merge(const IMetricRecorder& peer) override;
  void emit(MetricValues::Group& out) const override;

  const util::Histogram& finish_time() const noexcept { return finish_time_; }
  const util::Histogram& energy() const noexcept { return energy_; }

 private:
  util::Histogram finish_time_;
  util::Histogram energy_;
};

/// Checkpoint-operation and speed-switch profile ("checkpoints"):
/// means of the per-run SCP/CCP/CSCP checkpoint counts, detections,
/// and DVS speed switches — RunResult fields the default cell stats
/// never aggregated.
class CheckpointRecorder final : public IMetricRecorder {
 public:
  std::string_view name() const override { return "checkpoints"; }
  void observe(const RunView& run) override;
  void merge(const IMetricRecorder& peer) override;
  void emit(MetricValues::Group& out) const override;

 private:
  util::RunningStats scp_, ccp_, cscp_, detections_, speed_switches_;
};

/// Registry names accepted by make_metric_suite (and a scenario's
/// "metrics" array): currently "tails" and "checkpoints".
std::vector<std::string> known_metric_recorders();

/// Builds a suite from registry names (slot order = name order).
/// Throws std::invalid_argument on an unknown or duplicate name.
std::shared_ptr<const MetricSuite> make_metric_suite(
    const std::vector<std::string>& names);

/// The per-chunk aggregation state: the built-in CellStatsRecorder in
/// slot 0 plus one recorder per suite entry.  Move-only (owns the
/// recorders); values() snapshots the extras into a copyable
/// MetricValues.
class MetricSet {
 public:
  /// An empty set (no recorders); observe() on it is invalid.  Exists
  /// so containers of MetricSet can be default-constructed.
  MetricSet() = default;

  /// The aggregation state for one chunk of one cell.
  static MetricSet for_cell(const SimSetup& setup, const MetricSuite* suite);

  /// The aggregation state from an explicit recorder list — for
  /// workloads (graph cells) whose recorders are not built from a
  /// SimSetup.  Slot 0 must be a CellStatsRecorder; throws
  /// std::invalid_argument otherwise.
  static MetricSet from_recorders(
      std::vector<std::unique_ptr<IMetricRecorder>> recorders);

  bool valid() const noexcept { return !recorders_.empty(); }

  void observe(const RunView& run);
  /// Merges `other` slot-by-slot; `other` must have been built by
  /// for_cell with the same setup/suite and cover the immediately
  /// following run-index range.
  void merge(const MetricSet& other);

  const CellStats& cell_stats() const;
  CellStats& cell_stats();
  /// Emitted values of every suite recorder (slot 0's CellStats is
  /// surfaced as first-class report fields instead).
  MetricValues values() const;

 private:
  std::vector<std::unique_ptr<IMetricRecorder>> recorders_;
};

}  // namespace adacheck::sim
