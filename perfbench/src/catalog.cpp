#include "catalog.hpp"

namespace perfbench {

const char* unit_for(std::string_view name) {
  auto ends = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (name == "runs_per_s") return "1/s";
  if (name == "peak_rss_mb") return "MB";
  if (name == "campaign.cache_bytes") return "bytes";
  if (ends("_mb_per_s")) return "MB/s";
  if (ends("_s")) return "s";
  if (ends("_ms")) return "ms";
  if (name.find("_us") != std::string_view::npos) return "us";
  if (name.find("_ns") != std::string_view::npos) return "ns";
  if (name == "core_utilization" || name == "speedup" || ends("_frac")) {
    return "ratio";
  }
  return "count";
}

}  // namespace perfbench
