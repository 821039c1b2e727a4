#include "obs/trace.hpp"

#include <fstream>

#include "obs/json_writer.hpp"

namespace adacheck::obs {

Tracer& Tracer::instance() {
  static Tracer* const tracer = new Tracer();  // never destroyed
  return *tracer;
}

void Tracer::complete(std::string name, const char* category,
                      std::uint64_t start_micros, std::uint64_t dur_micros,
                      int tid) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'X';
  event.ts_micros = start_micros;
  event.dur_micros = dur_micros;
  event.tid = tid;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::instant(std::string name, const char* category) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'i';
  event.ts_micros = now_micros();
  event.tid = thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  std::string line;
  for (const auto& event : events_) {
    if (!first) os << ",\n";
    first = false;
    line.clear();
    line += "  {\"name\": ";
    append_json_string(line, event.name);
    line += ", \"cat\": ";
    append_json_string(line, event.category);
    line += ", \"ph\": \"";
    line.push_back(event.phase);
    line += "\", \"ts\": ";
    line += std::to_string(event.ts_micros);
    if (event.phase == 'X') {
      line += ", \"dur\": ";
      line += std::to_string(event.dur_micros);
    } else {
      line += ", \"s\": \"t\"";
    }
    line += ", \"pid\": 1, \"tid\": ";
    line += std::to_string(event.tid);
    line += "}";
    os << line;
  }
  os << "\n]}\n";
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_json(os);
  return os.good();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

}  // namespace adacheck::obs
