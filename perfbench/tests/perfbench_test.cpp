// Tests of the benchmark's own rules: the latency-percentile rule and
// quartiles, the paper-fidelity z score, the policy decorator's
// byte-neutrality, span self time, and the metric catalog against
// BENCHMARK.json.  Std-only; exits non-zero when any check fails.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "fidelity.hpp"
#include "harness/json_report.hpp"
#include "harness/stream_report.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

void test_percentile_rule() {
  using perfbench::reportable_percentile;
  CHECK(!reportable_percentile(0));
  CHECK(!reportable_percentile(19));  // the median leaves only 9 beyond
  CHECK(reportable_percentile(20) == 50.0);
  CHECK(reportable_percentile(99) == 50.0);  // p90 leaves only 9 beyond
  CHECK(reportable_percentile(100) == 90.0);
  CHECK(reportable_percentile(999) == 90.0);
  CHECK(reportable_percentile(1000) == 99.0);
  CHECK(reportable_percentile(9999) == 99.0);
  CHECK(reportable_percentile(10000) == 99.9);
  CHECK(perfbench::samples_beyond(100, 90.0) == 10);
  CHECK(perfbench::samples_beyond(10, 100.0) == 0);

  std::vector<double> hundred(100);
  std::iota(hundred.rbegin(), hundred.rend(), 1.0);  // 100 .. 1, unsorted
  CHECK(perfbench::percentile(hundred, 90.0) == 90.0);
  CHECK(perfbench::percentile(hundred, 50.0) == 50.0);
  CHECK(perfbench::median(hundred) == 50.5);
  const auto s = perfbench::summarize(hundred);
  CHECK(s.n == 100 && s.tail_percentile == 90.0 && s.tail_value == 90.0);
}

void test_quartiles_match_python() {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten(10);
  std::iota(ten.begin(), ten.end(), 1.0);
  const auto q = perfbench::quartiles(ten);
  CHECK(near(q.q1, 2.75) && near(q.q3, 8.25));
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  const auto three = perfbench::quartiles({3, 1, 2});
  CHECK(near(three.q1, 1.0) && near(three.q3, 3.0));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto two = perfbench::quartiles({1, 2});
  CHECK(near(two.q1, 0.75) && near(two.q3, 2.25));
}

/// Wilson 95% half-width written out, independent of the library.
double wilson_halfwidth(double successes, double n) {
  const double z = 1.959963984540054;
  const double p = successes / n;
  return z * std::sqrt(p * (1 - p) / n + z * z / (4 * n * n)) /
         (1 + z * z / n);
}

adacheck::sim::CellStats cell(int successes, int trials) {
  adacheck::sim::CellStats stats;
  for (int i = 0; i < trials; ++i) stats.completion.add(i < successes);
  return stats;
}

void test_paper_z() {
  // Ours 600/1000 against the paper's 0.5 at 10,000 runs.
  const double se = std::hypot(wilson_halfwidth(600, 1000) / 1.959963984540054,
                               wilson_halfwidth(5000, 10000) / 1.959963984540054);
  CHECK(near(perfbench::paper_z(0.5, 600, 1000), 0.1 / se, 1e-3));
  CHECK(perfbench::paper_z(0.5, 600, 1000) > 5.0);  // about 6.2
  CHECK(perfbench::paper_z(0.6, 600, 1000) == 0.0);
  CHECK(std::isnan(perfbench::paper_z(0.5, 0, 0)));
  CHECK(std::isnan(perfbench::paper_z(std::nan(""), 10, 20)));

  // One hand-made row: 600/1000 (z ~ 6.2) counts, 520/1000 (z ~ 1.2)
  // does not, and a NaN paper value is skipped.
  adacheck::harness::ExperimentResult experiment;
  experiment.spec.rows.push_back({0.8, 1e-3, {{0.5, 0}, {0.5, 0}, {std::nan(""), 0}}});
  experiment.cells.push_back({cell(600, 1000), cell(520, 1000), cell(1, 1000)});
  adacheck::harness::SweepResult sweep;
  sweep.experiments.push_back(experiment);
  CHECK(perfbench::cells_beyond(sweep, 5.0) == 1);
  CHECK(perfbench::cells_beyond(sweep, 1.0) == 2);
}

void test_decorator_is_byte_neutral() {
  namespace harness = adacheck::harness;
  harness::ExperimentSpec spec;
  spec.id = "decorator";
  spec.costs = adacheck::model::CheckpointCosts::paper_scp_flavor();
  spec.fault_tolerance = 5;
  spec.schemes = {"Poisson", "A_D", "A_D_S", "A_D_C"};
  spec.rows = {{0.76, 1.6e-3, {}}, {0.8, 1.4e-3, {}}};
  adacheck::sim::MonteCarloConfig config;
  config.runs = 300;  // two chunks, the second partial
  config.seed = 11;
  config.metrics = adacheck::sim::make_metric_suite({"tails", "checkpoints"});
  const std::vector<harness::ExperimentSpec> specs{spec};
  const auto refs = harness::sweep_cell_refs(specs);

  auto run = [&](bool timed, std::map<std::string, perfbench::DecisionTally>& tallies) {
    std::ostringstream jsonl;
    harness::JsonlCellStream stream(jsonl, refs);
    harness::SweepOptions options;
    options.observer = &stream;
    const auto sweep =
        timed ? perfbench::run_sweep_timed(specs, {}, config, options, tallies)
              : harness::run_sweep(specs, config, options);
    harness::JsonReportOptions no_perf;
    no_perf.include_perf = false;
    return harness::sweep_json(sweep, no_perf) + jsonl.str();
  };
  std::map<std::string, perfbench::DecisionTally> tallies;
  for (const auto& scheme : spec.schemes) tallies.try_emplace(scheme);
  const std::string plain = run(false, tallies);
  const std::string timed = run(true, tallies);
  CHECK(!plain.empty());
  CHECK(plain == timed);
  for (const auto& [scheme, tally] : tallies) {
    // initial() once per run: 2 rows x 300 runs per scheme.
    CHECK(tally.runs.load() == 600);
    CHECK(tally.decisions.load() >= tally.runs.load());
    CHECK(tally.nanos.load() > 0);
  }
}

/// The metric names and units the binary reports, and the workloads it
/// accepts, are the ones BENCHMARK.json declares, in the same order.
void test_catalog_matches_benchmark_json() {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  CHECK(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = adacheck::util::json::parse(text.str());
  auto check_list = [&](const char* key, const auto& names) {
    const auto& declared = doc.find(key)->as_array();
    CHECK(declared.size() == std::size(names));
    for (std::size_t i = 0; i < declared.size() && i < std::size(names); ++i) {
      const std::string name = declared[i].find("name")->as_string();
      CHECK(name == names[i]);
      CHECK(declared[i].find("unit")->as_string() == perfbench::unit_for(name));
    }
  };
  check_list("end_to_end", perfbench::kEndToEndMetrics);
  check_list("per_layer", perfbench::kPerLayerMetrics);
  const auto& workloads = doc.find("workloads")->as_array();
  CHECK(workloads.size() == std::size(perfbench::kWorkloadNames));
  for (std::size_t i = 0;
       i < workloads.size() && i < std::size(perfbench::kWorkloadNames); ++i) {
    CHECK(workloads[i].find("name")->as_string() == perfbench::kWorkloadNames[i]);
  }
}

void test_self_time() {
  using perfbench::Clock;
  perfbench::SpanRecorder spans;
  const auto t = Clock::now();
  auto at = [&](int us) { return t + std::chrono::microseconds(us); };
  // A 100 us parent with overlapping children covering [10, 40) and a
  // child that sticks out past the parent's end: 30 + 20 us covered.
  const auto parent = spans.add("job", 0, at(0), at(100));
  spans.add("child", parent, at(10), at(30));
  spans.add("child", parent, at(20), at(40));
  spans.add("child", parent, at(80), at(120));
  const auto self = spans.self_times();
  CHECK(self.at("job").count == 1);
  CHECK(near(self.at("job").total_us, 50.0, 1e-6));
  CHECK(self.at("child").count == 3);
  CHECK(near(self.at("child").mean_us(), (20.0 + 20.0 + 40.0) / 3, 1e-6));
}

}  // namespace

int main() {
  test_percentile_rule();
  test_quartiles_match_python();
  test_paper_z();
  test_decorator_is_byte_neutral();
  test_self_time();
  test_catalog_matches_benchmark_json();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
