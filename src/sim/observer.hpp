// Sweep observers and cooperative cancellation.
//
// run_cells_ex / run_sweep execute a flat chunk queue; an ISweepObserver
// watches cell-granular progress of that queue without perturbing it:
// on_cell_start when a cell's first chunk begins, on_cell_done exactly
// once per cell — with the cell's final merged statistics — when its
// last chunk finishes, and on_progress after every chunk.  The runner
// SERIALIZES all callbacks behind one mutex: implementations never see
// concurrent calls and need no locking of their own, but they run on
// worker threads and block the queue while they execute, so they
// should be quick.
//
// Passing no observer and no cancellation token is the zero-cost null
// path: the runner skips every piece of tracking bookkeeping and
// behaves exactly like the pre-observer implementation.
//
// Cancellation is cooperative: a CancellationToken flips an atomic
// flag that workers check between chunks.  Remaining chunks are
// drained without simulating, and the runner throws SweepCancelled —
// partial statistics never escape as if they were complete.  An
// observer or recorder that throws aborts the sweep the same way: the
// queue fast-drains and the first exception propagates from the
// TaskGroup.
#pragma once

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/metrics.hpp"

namespace adacheck::sim {

/// One completed cell: the merged default statistics plus the emitted
/// values of the cell's extra metric recorders (empty when the cell's
/// config named no suite).
struct CellResult {
  CellStats stats;
  MetricValues metrics;
};

/// Chunk-granular progress of one run_cells_ex execution.  For budgeted
/// cells (MonteCarloConfig::budget) runs_total is the runs scheduled
/// so far and grows each round — it is an estimate that only settles
/// when every budgeted cell has stopped; runs_done counts every
/// executed run, including chunks run past a cell's stopping chunk
/// (only when fewer cells than threads were left), so runs_done ==
/// runs_total on the final call.
struct SweepProgress {
  std::size_t cells_total = 0;
  std::size_t cells_done = 0;
  long long runs_total = 0;
  long long runs_done = 0;
};

/// Observer interface; default implementations ignore every event, so
/// implementations override only what they need.
class ISweepObserver {
 public:
  virtual ~ISweepObserver() = default;

  /// The first chunk of cell `cell` is about to execute.
  virtual void on_cell_start(std::size_t cell) { (void)cell; }
  /// Cell `cell` finished: every chunk executed and merged (for a
  /// budgeted cell, the stopping prefix was merged).  Fires exactly
  /// once per cell, in completion order (not index order).
  virtual void on_cell_done(std::size_t cell, const CellResult& result) {
    (void)cell;
    (void)result;
  }
  /// A chunk finished.  Monotonic within a sweep; the final call
  /// reports cells_done == cells_total.
  virtual void on_progress(const SweepProgress& progress) { (void)progress; }
};

/// Cooperative stop flag shared between a controller and a sweep.
/// request_stop() may be called from any thread (an observer callback
/// included); workers drain the remaining queue without simulating and
/// the runner throws SweepCancelled.
class CancellationToken {
 public:
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
};

/// Thrown by run_cells_ex / run_sweep when a CancellationToken stopped the
/// sweep before every chunk executed.
class SweepCancelled : public std::runtime_error {
 public:
  SweepCancelled() : std::runtime_error("sweep cancelled") {}
};

/// Fans events out to several observers in registration order (e.g.
/// a JSONL stream plus a progress line).  Does not own the observers.
class ObserverList final : public ISweepObserver {
 public:
  ObserverList& add(ISweepObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
    return *this;
  }
  bool empty() const noexcept { return observers_.empty(); }

  void on_cell_start(std::size_t cell) override {
    for (auto* observer : observers_) observer->on_cell_start(cell);
  }
  void on_cell_done(std::size_t cell, const CellResult& result) override {
    for (auto* observer : observers_) observer->on_cell_done(cell, result);
  }
  void on_progress(const SweepProgress& progress) override {
    for (auto* observer : observers_) observer->on_progress(progress);
  }

 private:
  std::vector<ISweepObserver*> observers_;
};

}  // namespace adacheck::sim
