// In-memory span recording for the traced benchmark run.
//
// The benchmark times calls into the library's public functions from
// its own code: each timed call is a span (name, start, end, parent),
// spans of one workload pass share a trace id, and nothing touches the
// disk until write_chrome_trace() at the end.  A span's self time is
// its duration minus the part of it that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady-clock points.
inline double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::uint64_t trace = 0;   ///< the workload pass that recorded it
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanRecorder {
 public:
  /// Starts a new trace: spans recorded from now on carry its id.
  void begin_trace();

  /// Records a finished span; returns its id (ids start at 1).
  std::uint64_t add(std::string name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end);

  /// Opens a span whose end is filled in by close(); for spans that
  /// are parents of spans recorded while they are open.
  std::uint64_t open(std::string name, std::uint64_t parent);
  void close(std::uint64_t id);

  std::vector<Span> spans() const;

  /// Per span name: the summed self time (duration minus the union of
  /// its children's intervals, clipped to it) and the span count.
  struct SelfTime {
    double total_us = 0.0;
    std::size_t count = 0;
    double mean_us() const { return count == 0 ? 0.0 : total_us / count; }
  };
  std::map<std::string, SelfTime> self_times() const;

  /// Writes every span as Chrome trace-event JSON ("X" events, one
  /// track per trace id), loadable in Perfetto or chrome://tracing.
  void write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;  ///< guards everything below
  std::vector<Span> spans_;
  std::uint64_t trace_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
