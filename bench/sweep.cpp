// Full-grid parallel sweep with machine-readable perf output.
//
// Runs all eight paper sub-tables (or a --tables subset) as one flat
// task queue on the shared thread pool and writes BENCH_sweep.json:
// every cell's statistics plus wall-clock and runs-per-second, the
// numbers CI archives to track the perf trajectory.
//
// Observer-overhead guard: the main sweep is the null-observer path;
// a second identical sweep runs under a no-op observer, and the perf
// section gains an advisory "observer_overhead" object comparing the
// two (and the null path against the committed --baseline report).
// Advisory means exactly that — machines, thread counts, and run
// budgets differ between measurements, so a low ratio warns on stderr
// but never fails the process.
//
// Run-budget guard: a third measurement runs one high-P(success) cell
// twice — at the fixed run count and under a precision budget
// targeting the same Wilson half-width the fixed count achieves — and
// the perf section gains "time_to_target_precision" comparing runs
// and wall clock.  The budgeted path should hit matched precision in
// a fraction of the runs; CI asserts the ratio stays >= 5x.
//
// Telemetry-overhead guard: a fourth measurement reruns the sweep
// with the obs registry and tracer enabled, and the perf section
// gains an advisory "telemetry_overhead" object comparing metered vs
// unmetered throughput.  Same advisory stance as observer_overhead.
//
// Usage: bench_sweep [--runs=N] [--seed=S] [--threads=T]
//                    [--out=BENCH_sweep.json] [--tables=table1a,table2b]
//                    [--baseline=BENCH_sweep.json] [--no-observer-check]
//                    [--precision-runs=N] [--precision-target=H]
//                    [--no-precision-check] [--no-telemetry-check]
//                    [--validate] [--no-perf]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/json_report.hpp"
#include "harness/paper_params.hpp"
#include "harness/sweep.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/observer.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

/// perf.runs_per_second of a committed adacheck-sweep report; 0 when
/// the file is missing, unparsable, or has no perf section.
double baseline_runs_per_second(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0.0;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const auto doc = adacheck::util::json::parse(buffer.str());
    const auto* perf = doc.find("perf");
    if (perf == nullptr) return 0.0;
    const auto* rate = perf->find("runs_per_second");
    return rate != nullptr && rate->is_number() ? rate->as_number() : 0.0;
  } catch (const std::exception&) {
    return 0.0;
  }
}

int tool_main(const adacheck::util::CliArgs& args) {
  using namespace adacheck;
  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 10'000));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5EED5EED));
  config.threads = static_cast<int>(args.get_int("threads", 0));
  config.validate = args.get_bool("validate", false);
  util::ThreadPool::set_shared_size(config.threads);

  std::vector<harness::ExperimentSpec> specs = harness::all_paper_tables();
  const std::string tables = args.get_string("tables", "");
  if (!tables.empty()) {
    const auto wanted = util::split_csv(tables);
    std::vector<harness::ExperimentSpec> filtered;
    for (const auto& spec : specs) {
      for (const auto& id : wanted) {
        if (spec.id == id) {
          filtered.push_back(spec);
          break;
        }
      }
    }
    if (filtered.empty()) {
      std::cerr << "no table matches --tables=" << tables << "\n";
      return 1;
    }
    specs = std::move(filtered);
  }

  const std::string out_path = args.get_string("out", "BENCH_sweep.json");
  // Read the committed baseline BEFORE the sweep possibly overwrites
  // the same path.
  const std::string baseline_path =
      args.get_string("baseline", "BENCH_sweep.json");
  harness::PerfBaseline baseline;
  baseline.path = baseline_path;
  baseline.runs_per_second = baseline_runs_per_second(baseline_path);

  // The measured sweep IS the null-observer path.
  const auto sweep = harness::run_sweep(specs, config);
  baseline.null_runs_per_second = sweep.perf.runs_per_second;

  harness::JsonReportOptions options;
  options.include_perf = !args.get_bool("no-perf", false);

  // The rerun only feeds the perf section, so skip it whenever that
  // section is suppressed — --no-perf must not double the bench time.
  if (options.include_perf && !args.get_bool("no-observer-check", false)) {
    // Same sweep under a no-op observer: any throughput gap is the
    // cost of the observer plumbing itself (per-cell tracking atomics
    // and serialized callbacks), amortized over every run.
    sim::ISweepObserver noop;
    harness::SweepOptions observed;
    observed.observer = &noop;
    const auto rerun = harness::run_sweep(specs, config, observed);
    baseline.observer_runs_per_second = rerun.perf.runs_per_second;
    options.baseline = &baseline;

    const double ratio =
        baseline.null_runs_per_second > 0.0
            ? baseline.observer_runs_per_second / baseline.null_runs_per_second
            : 0.0;
    if (ratio < harness::PerfBaseline::kMinObserverRatio) {
      std::cerr << "advisory: observer path at " << ratio
                << "x of null-path throughput (tolerance "
                << harness::PerfBaseline::kMinObserverRatio << "x)\n";
    }
  }
  // Time-to-target-precision probe: one high-P(success) cell, fixed
  // run count vs a budget targeting the same achieved half-width.
  harness::PrecisionBench precision;
  if (options.include_perf && !args.get_bool("no-precision-check", false)) {
    harness::ExperimentSpec spec;
    spec.id = "precision";
    spec.title = "time-to-target-precision probe";
    spec.costs = model::CheckpointCosts::paper_scp_flavor();
    spec.deadline = 10'000.0;
    spec.fault_tolerance = 5;
    spec.speed_ratio = 2.0;
    spec.util_level = 0;
    spec.schemes = {"A_D_S"};
    spec.rows = {{0.5, 1.0e-4, {}}};

    sim::MonteCarloConfig fixed;
    fixed.runs = static_cast<int>(args.get_int("precision-runs", 10'000));
    fixed.seed = config.seed;
    fixed.threads = config.threads;
    auto jobs = harness::experiment_jobs(spec, fixed);
    const auto& job = jobs.at(0);

    using clock = std::chrono::steady_clock;
    const auto fixed_t0 = clock::now();
    const auto fixed_stats = sim::run_cell(job.setup, job.factory, job.config);
    const auto fixed_t1 = clock::now();

    auto budgeted_config = job.config;
    budgeted_config.budget.target_p_halfwidth =
        args.get_double("precision-target", 0.01);
    const auto budgeted_t0 = clock::now();
    const auto budgeted_stats =
        sim::run_cell(job.setup, job.factory, budgeted_config);
    const auto budgeted_t1 = clock::now();

    const auto seconds = [](clock::time_point a, clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    precision.target_p_halfwidth = budgeted_config.budget.target_p_halfwidth;
    precision.fixed_runs =
        static_cast<long long>(fixed_stats.completion.trials());
    precision.fixed_wall_seconds = seconds(fixed_t0, fixed_t1);
    precision.fixed_p_halfwidth = fixed_stats.completion.wilson_halfwidth();
    precision.budgeted_runs =
        static_cast<long long>(budgeted_stats.completion.trials());
    precision.budgeted_wall_seconds = seconds(budgeted_t0, budgeted_t1);
    precision.budgeted_p_halfwidth =
        budgeted_stats.completion.wilson_halfwidth();
    options.precision = &precision;
  }

  // Telemetry-overhead probe: the same sweep with the metrics registry
  // and tracer switched on.  The main sweep already measured the
  // disabled path (telemetry defaults off), so one metered rerun gives
  // the ratio the "telemetry is near-free" claim rests on.
  harness::TelemetryBench telemetry;
  if (options.include_perf && !args.get_bool("no-telemetry-check", false)) {
    obs::Registry::instance().set_enabled(true);
    obs::Tracer::instance().set_enabled(true);
    const auto metered = harness::run_sweep(specs, config);
    obs::Tracer::instance().set_enabled(false);
    obs::Registry::instance().set_enabled(false);

    telemetry.disabled_runs_per_second = sweep.perf.runs_per_second;
    telemetry.enabled_runs_per_second = metered.perf.runs_per_second;
    telemetry.events_recorded =
        static_cast<long long>(obs::Tracer::instance().event_count());
    obs::Tracer::instance().clear();
    options.telemetry = &telemetry;

    const double ratio =
        telemetry.disabled_runs_per_second > 0.0
            ? telemetry.enabled_runs_per_second /
                  telemetry.disabled_runs_per_second
            : 0.0;
    if (ratio < harness::TelemetryBench::kMinTelemetryRatio) {
      std::cerr << "advisory: metered path at " << ratio
                << "x of unmetered throughput (tolerance "
                << harness::TelemetryBench::kMinTelemetryRatio << "x)\n";
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open output file: " << out_path << "\n";
    return 1;
  }
  harness::write_sweep_json(sweep, out, options);

  std::cout << "sweep: " << sweep.perf.cells << " cells x " << config.runs
            << " runs on " << sweep.perf.threads << " threads\n"
            << "wall: " << sweep.perf.wall_seconds << " s, "
            << sweep.perf.runs_per_second << " runs/s\n";
  if (options.precision != nullptr) {
    std::cout << "precision: " << precision.budgeted_runs << " budgeted vs "
              << precision.fixed_runs << " fixed runs ("
              << (precision.budgeted_runs > 0
                      ? static_cast<double>(precision.fixed_runs) /
                            static_cast<double>(precision.budgeted_runs)
                      : 0.0)
              << "x fewer) at half-width target "
              << precision.target_p_halfwidth << "\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adacheck::util::run_tool(
      argc, argv,
      {"runs", "seed", "threads", "out", "tables", "baseline",
       "no-observer-check", "precision-runs", "precision-target",
       "no-precision-check", "no-telemetry-check", "validate", "no-perf"},
      tool_main);
}
