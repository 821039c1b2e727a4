// Energy accounting.
//
// The paper measures energy by "summing the product of the square of
// the voltage and the number of computation cycles over all the
// segments of the task".  EnergyMeter implements exactly that, keeping
// a per-speed breakdown so benches can report how much work ran at the
// high speed.  We account one processor of the DMR pair (both execute
// the same cycles; a doubled figure is a constant factor).
//
// The meter sits on the Monte-Carlo hot path (one per simulated run),
// so the per-frequency table lives in a fixed inline array — charging
// never touches the heap for processors with up to kInlineLevels speed
// levels; beyond that it spills to a vector.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "model/speed.hpp"

namespace adacheck::model {

class EnergyMeter {
 public:
  /// Charges `cycles` cycles executed at `level` (computation or
  /// checkpoint overhead alike — everything the CPU executes costs).
  /// Inline up to a hit on an existing slot, the case the engine takes
  /// on every charge after a run's first at each speed.
  void charge(const SpeedLevel& level, double cycles) {
    if (cycles < 0.0) throw_negative_cycles();
    total_ += level.energy(cycles);
    total_cycles_ += cycles;
    for (std::size_t i = 0; i < slot_count_; ++i) {
      if (slots_[i].frequency == level.frequency) {
        slots_[i].cycles += cycles;
        return;
      }
    }
    charge_new_level(level.frequency, cycles);
  }

  /// The three sums a charge at one frequency adds to, held by a
  /// caller that charges many times at one level: Tally::add makes the
  /// same additions as charge(), in the same order, and settle() hands
  /// the sums back.  The engine runs fault-free attempts this way.
  struct Tally {
    double total;
    double total_cycles;
    double level_cycles;

    void add(const SpeedLevel& level, double cycles) noexcept {
      total += level.energy(cycles);
      total_cycles += cycles;
      level_cycles += cycles;
    }
  };
  Tally tally(double frequency) const noexcept {
    return {total_, total_cycles_, cycles_at(frequency)};
  }
  /// Stores `tally`, taken from tally(frequency) and charged at least
  /// once since (the level then has a slot, as after charge()).
  void settle(double frequency, const Tally& tally);

  double total() const noexcept { return total_; }
  double cycles_at(double frequency) const noexcept;
  double total_cycles() const noexcept { return total_cycles_; }
  /// Cycles executed strictly above `frequency`; allocation-free, for
  /// hot-path aggregation of high-speed work.
  double cycles_above(double frequency) const noexcept;
  /// Per-frequency cycle breakdown, sorted ascending by frequency.
  /// Builds a fresh vector — reporting paths only.
  std::vector<std::pair<double, double>> breakdown() const;

  void reset() noexcept;

 private:
  struct Entry {
    double frequency = 0.0;
    double cycles = 0.0;
  };
  /// Covers every realistic DVS table (the paper uses two levels).
  static constexpr std::size_t kInlineLevels = 6;

  [[noreturn]] static void throw_negative_cycles();
  /// charge() for a frequency with no slot yet: a new inline slot, or
  /// the spill vector.
  void charge_new_level(double frequency, double cycles);

  double total_ = 0.0;
  double total_cycles_ = 0.0;
  std::array<Entry, kInlineLevels> slots_{};
  std::size_t slot_count_ = 0;
  std::vector<Entry> spill_;  ///< only for > kInlineLevels frequencies
};

}  // namespace adacheck::model
