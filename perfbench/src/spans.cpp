#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

void SpanRecorder::begin_trace() {
  std::lock_guard<std::mutex> lock(mu_);
  ++trace_;
}

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t parent,
                                Clock::time_point start,
                                Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, trace_, std::move(name), start, end});
  return id;
}

std::uint64_t SpanRecorder::open(std::string name, std::uint64_t parent) {
  const auto now = Clock::now();
  return add(std::move(name), parent, now, now);
}

void SpanRecorder::close(std::uint64_t id) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) {
    throw std::logic_error("SpanRecorder::close: unknown span");
  }
  spans_[id - 1].end = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::self_times() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : all) {
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point reach = s.start;
      for (const auto& [lo, hi] : iv) {
        const auto from = std::max(lo, reach);
        if (from < hi) {
          covered += micros(from, hi);
          reach = hi;
        }
      }
    }
    SelfTime& t = out[s.name];
    t.total_us += std::max(0.0, micros(s.start, s.end) - covered);
    ++t.count;
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error(path + ": cannot write the trace");
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    if (!first) os << ",";
    first = false;
    std::string name;
    for (const char c : s.name) {
      if (c == '"' || c == '\\') name += '\\';
      name += c;
    }
    os << "\n{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.trace << ",\"ts\":" << micros(epoch_, s.start)
       << ",\"dur\":" << micros(s.start, s.end) << ",\"args\":{\"id\":"
       << s.id << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  if (!os.flush()) throw std::runtime_error(path + ": trace write failed");
}

}  // namespace perfbench
