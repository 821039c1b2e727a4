// adacheck benchmark: the perfbench executable.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Runs one workload (see perfbench/README.md) in this process: set-up
// several times, one warmup pass, then timed passes for --seconds.  --trace 0 reports the end-to-end metrics; --trace 1
// splits the time between untraced and traced passes and reports the
// per-layer metrics, probing every layer.  The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  A
// human-readable table with sample counts and spreads goes to stderr.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 51;    ///< set-ups per run; setup_s is their median
constexpr int kMinPasses = 3;  ///< per timed phase, however long a pass takes
/// Threads of the shared pool's parallel_for at most: its workers plus
/// the caller, which helps.  One per core, so the serve jobs and the
/// speedup check time the program rather than the scheduler.  The
/// sweep workloads' timed passes run in the caller (inputs.cpp).
constexpr int kMaxThreads = 4;

void usage(std::ostream& os) {
  os << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
        "                 [--work-dir DIR]\n"
        "workloads:";
  for (const char* name : kWorkloadNames) os << ' ' << name;
  os << "\n--work-dir defaults to 'work' beside the executable.\n";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path work_dir;
};

/// Throws std::invalid_argument on any bad or missing flag.
Options parse_options(int argc, char** argv) {
  const adacheck::util::CliArgs args(
      argc, argv, {"workload", "seed", "seconds", "trace", "work-dir"});
  if (!args.positional().empty()) {
    throw std::invalid_argument("unexpected argument " + args.positional()[0]);
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.has(required)) {
      throw std::invalid_argument(std::string("missing --") + required);
    }
  }
  Options o;
  o.workload = args.get_string("workload", "");
  if (std::find_if(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                   [&](const char* n) { return o.workload == n; }) ==
      std::end(kWorkloadNames)) {
    throw std::invalid_argument("unknown workload \"" + o.workload + "\"");
  }
  const std::int64_t seed = args.get_int("seed", 0);
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  o.seed = static_cast<std::uint64_t>(seed);
  o.seconds = args.get_double("seconds", 0.0);
  if (!(o.seconds > 0.0) || o.seconds > 600.0) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  const std::int64_t trace = args.get_int("trace", -1);
  if (trace != 0 && trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  o.trace = trace == 1;
  o.work_dir = args.has("work-dir")
                   ? std::filesystem::path(args.get_string("work-dir", ""))
                   : std::filesystem::read_symlink("/proc/self/exe")
                             .parent_path() / "work";
  return o;
}

std::vector<double> field(const std::vector<PassResult>& passes,
                          double PassResult::*member) {
  std::vector<double> out;
  for (const auto& p : passes) out.push_back(p.*member);
  return out;
}

std::vector<double> rates(const std::vector<PassResult>& passes) {
  std::vector<double> out;
  for (const auto& p : passes) out.push_back(static_cast<double>(p.runs) / p.wall_s);
  return out;
}

/// Times passes until `seconds` have gone by and at least `min_passes`
/// ran.
std::vector<PassResult> timed_passes(Workload& workload, double seconds,
                                     SpanRecorder* spans,
                                     int min_passes = kMinPasses) {
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  while (passes.size() < static_cast<std::size_t>(min_passes) ||
         micros(start, Clock::now()) * 1e-6 < seconds) {
    if (spans != nullptr) spans->begin_trace();
    passes.push_back(workload.pass(spans));
  }
  return passes;
}

void print_summary(const std::string& name, const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  std::fprintf(stderr, "  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g n=%zu",
               name.c_str(), s.median, s.q1, s.q3, s.n);
  if (s.tail_percentile) {
    std::fprintf(stderr, "  p%g %.6g", *s.tail_percentile, s.tail_value);
  }
  std::fprintf(stderr, "\n");
}

/// VmHWM of this process image.  getrusage's ru_maxrss would also
/// count whatever ran in the process before it exec'd this binary.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
  }
  void add(const std::vector<PassResult>& ps) {
    for (const auto& p : ps) add(p);
  }
};

/// Runs the workload layers that `workload` does not exercise itself
/// (traced passes for about a second, at least one), so every traced
/// run reports every layer metric.
void other_layers(const std::string& workload, const RunContext& context,
                  SpanRecorder& spans, Metrics& out, Tally& tally) {
  for (const char* name :
       {"paper-tables", "fault-envs", "campaign-cache", "serve-loop"}) {
    if (workload == name) continue;
    auto helper = make_workload(name, context);
    helper->setup();
    tally.add(timed_passes(*helper, 1.0, &spans, 1));
    tally.add(helper->final_checks());
    helper->layer_metrics(out, spans);
    helper->teardown();
  }
}

int run(const Options& o) {
  const int threads = std::max(
      2, std::min<int>(kMaxThreads,
                       adacheck::util::ThreadPool::default_concurrency()));
  adacheck::util::ThreadPool::set_shared_size(threads - 1);
  std::filesystem::create_directories(o.work_dir);
  const RunContext context{o.seed, o.work_dir};
  auto workload = make_workload(o.workload, context);
  Tally tally;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.push_back(micros(t0, Clock::now()) * 1e-6);
    if (i + 1 < kSetups) workload->teardown();
  }
  const PassResult warmup = workload->pass(nullptr);
  tally.add(warmup);

  const double untraced_seconds = o.trace ? o.seconds / 2 : o.seconds;
  const std::vector<PassResult> passes =
      timed_passes(*workload, untraced_seconds, nullptr);
  tally.add(passes);
  tally.add(workload->final_checks());

  Metrics metrics;
  std::fprintf(stderr,
               "perfbench %s seed=%llu threads=%d passes=%zu warmup_s=%.6g\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               threads, passes.size(), warmup.wall_s);
  if (!o.trace) {
    // Latency percentiles are taken per pass, then their median over
    // the passes: sweep cells finish in clusters at the budget's wave
    // barriers, so a percentile of the pooled samples would be one
    // pass's barrier time rather than a typical one.
    std::vector<double> p50, p90;
    for (const auto& p : passes) {
      if (samples_beyond(p.latencies_ms.size(), 90.0) < 10) {
        throw std::runtime_error("too few operations in a pass for a p90: " +
                                 std::to_string(p.latencies_ms.size()));
      }
      p50.push_back(percentile(p.latencies_ms, 50.0));
      p90.push_back(percentile(p.latencies_ms, 90.0));
    }
    const std::vector<std::pair<std::string, std::vector<double>>> samples = {
        {"setup_s", setup_s},
        {"wall_s", field(passes, &PassResult::wall_s)},
        {"cpu_s", field(passes, &PassResult::cpu_s)},
        {"runs_per_s", rates(passes)},
        {"submit_to_done_p50_ms", p50},
        {"submit_to_done_p90_ms", p90}};
    for (const auto& [name, values] : samples) {
      print_summary(name, values);
      metrics[name] = median(values);
    }
  } else {
    SpanRecorder spans;
    const std::vector<PassResult> traced =
        timed_passes(*workload, o.seconds - untraced_seconds, &spans);
    tally.add(traced);
    const double wall = median(field(passes, &PassResult::wall_s));
    metrics["bench.warmup_s"] = warmup.wall_s;
    metrics["bench.trace_overhead_frac"] =
        median(field(traced, &PassResult::wall_s)) / wall - 1.0;
    std::vector<double> runs;
    for (const auto& p : passes) runs.push_back(static_cast<double>(p.runs));
    metrics["sim.runs_executed"] = median(runs);
    workload->layer_metrics(metrics, spans);
    other_layers(o.workload, context, spans, metrics, tally);
    probe_analytic(metrics);
    probe_engine(metrics, spans);
    probe_faults(metrics);
    probe_graph(metrics);
    const auto trace_path =
        o.work_dir / ("trace-" + o.workload + "-" + std::to_string(o.seed) + ".json");
    spans.write_chrome_trace(trace_path.string());
    std::fprintf(stderr, "  spans written to %s\n", trace_path.c_str());
  }
  workload->teardown();

  if (!o.trace) metrics["peak_rss_mb"] = peak_rss_mb();

  // The reported set must be exactly the one BENCHMARK.json declares.
  std::set<std::string> expected;
  if (o.trace) {
    expected.insert(std::begin(kPerLayerMetrics), std::end(kPerLayerMetrics));
  } else {
    expected.insert(std::begin(kEndToEndMetrics), std::end(kEndToEndMetrics));
  }
  for (const auto& [name, value] : metrics) {
    if (expected.count(name) == 0) throw std::logic_error("undeclared metric " + name);
    if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
  }
  for (const auto& name : expected) {
    if (metrics.count(name) == 0) throw std::runtime_error("metric " + name + " was not measured");
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value, unit_for(name));
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(std::cerr);
        return 2;
      }
    }
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
