#include "probes.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "analytic/interval_policy.hpp"
#include "analytic/num_checkpoints.hpp"
#include "harness/json_report.hpp"
#include "harness/stream_report.hpp"
#include "model/fault.hpp"
#include "model/fault_env.hpp"
#include "policy/factory.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "sched/graph_executive.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "util/canonical_json.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sim = adacheck::sim;
namespace model = adacheck::model;
namespace harness = adacheck::harness;

namespace {

/// Keeps a computed value alive so the optimizer cannot drop the call.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over five batches of the mean nanoseconds per call(i), each
/// batch sized to last about `batch_seconds`.  i counts calls across
/// batches, so callers can vary seeds.
template <class F>
double ns_per_call(F&& call, double batch_seconds = 0.01) {
  long long index = 0;
  long long n = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (long long i = 0; i < n; ++i) call(index++);
    const double elapsed = micros(t0, Clock::now()) * 1e-6;
    if (elapsed >= batch_seconds / 4 || n >= (1LL << 30)) {
      n = std::max<long long>(
          1, static_cast<long long>(static_cast<double>(n) * batch_seconds /
                                    std::max(elapsed, 1e-9)));
      break;
    }
    n *= 4;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (long long i = 0; i < n; ++i) call(index++);
    per_call.push_back(micros(t0, Clock::now()) * 1e3 /
                       static_cast<double>(n));
  }
  return median(per_call);
}

/// bench_micro's paper cell: U = 0.76, k = 5, SCP-flavor costs.
sim::SimSetup paper_cell(double lambda) {
  return sim::SimSetup{model::task_from_utilization(0.76, 1.0, 10'000.0, 5),
                       model::CheckpointCosts::paper_scp_flavor(),
                       model::DvsProcessor::two_speed(2.0),
                       model::FaultModel{lambda, false}};
}

}  // namespace

TimedPolicy::TimedPolicy(std::unique_ptr<sim::ICheckpointPolicy> inner,
                         DecisionTally& tally, int time_every,
                         SpanRecorder* spans)
    : inner_(std::move(inner)),
      tally_(tally),
      time_every_(std::max(1, time_every)),
      spans_(spans) {}

void TimedPolicy::flush() {
  tally_.runs.fetch_add(runs_, std::memory_order_relaxed);
  tally_.decisions.fetch_add(decisions_, std::memory_order_relaxed);
  tally_.timed.fetch_add(timed_, std::memory_order_relaxed);
  tally_.nanos.fetch_add(nanos_, std::memory_order_relaxed);
  runs_ = decisions_ = timed_ = nanos_ = 0;
}

template <class Call>
auto TimedPolicy::decide(Call&& call) {
  if (decisions_++ % time_every_ != 0) return call();
  const auto start = Clock::now();
  auto decision = call();
  const auto end = Clock::now();
  ++timed_;
  nanos_ +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  if (spans_ != nullptr) spans_->add("policy.decide", parent_, start, end);
  return decision;
}

sim::Decision TimedPolicy::initial(const sim::ExecContext& ctx) {
  ++runs_;
  return decide([&] { return inner_->initial(ctx); });
}

sim::Decision TimedPolicy::on_fault(const sim::ExecContext& ctx) {
  return decide([&] { return inner_->on_fault(ctx); });
}

std::optional<sim::Decision> TimedPolicy::on_commit(
    const sim::ExecContext& ctx) {
  return decide([&] { return inner_->on_commit(ctx); });
}

namespace {

/// A factory whose policies are `inner`'s wrapped in TimedPolicy.
sim::PolicyFactory timed_factory(sim::PolicyFactory inner,
                                 DecisionTally& tally, int time_every) {
  return [inner = std::move(inner), &tally, time_every] {
    return std::make_unique<TimedPolicy>(inner(), tally, time_every);
  };
}

}  // namespace

harness::SweepResult run_sweep_timed(
    const std::vector<harness::ExperimentSpec>& specs,
    const std::vector<harness::GraphExperimentSpec>& graphs,
    const sim::MonteCarloConfig& config, const harness::SweepOptions& options,
    std::map<std::string, DecisionTally>& tallies) {
  // The same flattening as harness::run_sweep, with decorated factories.
  std::vector<sim::CellJob> jobs;
  std::vector<std::size_t> offsets, graph_offsets;
  for (const auto& spec : specs) {
    offsets.push_back(jobs.size());
    auto spec_jobs = harness::experiment_jobs(spec, config);
    for (std::size_t i = 0; i < spec_jobs.size(); ++i) {
      const std::string& scheme = spec.schemes[i % spec.schemes.size()];
      spec_jobs[i].factory =
          timed_factory(std::move(spec_jobs[i].factory),
                        tallies.at(scheme), kSweepTimeEvery);
      jobs.push_back(std::move(spec_jobs[i]));
    }
  }
  for (const auto& graph : graphs) {
    graph_offsets.push_back(jobs.size());
    for (auto& job : harness::graph_experiment_jobs(graph, config)) {
      jobs.push_back(std::move(job));
    }
  }
  int threads_used = 1;
  sim::RunCellsOptions run_options;
  run_options.threads = config.threads;
  run_options.threads_used = &threads_used;
  run_options.observer = options.observer;
  run_options.cancel = options.cancel;
  const auto t0 = Clock::now();
  const auto cells = sim::run_cells_ex(jobs, run_options);
  const auto t1 = Clock::now();

  harness::SweepResult result;
  result.config = config;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.experiments.push_back(
        harness::assemble_experiment(specs[i], cells, offsets[i]));
  }
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    result.graph_experiments.push_back(
        harness::assemble_graph_experiment(graphs[i], cells, graph_offsets[i]));
  }
  result.perf.wall_seconds = micros(t0, t1) * 1e-6;
  result.perf.cells = jobs.size();
  for (const auto& cell : cells) {
    result.perf.total_runs +=
        static_cast<long long>(cell.stats.completion.trials());
  }
  result.perf.runs_per_second =
      static_cast<double>(result.perf.total_runs) / result.perf.wall_seconds;
  result.perf.threads = threads_used;
  return result;
}

void probe_analytic(Metrics& out) {
  namespace an = adacheck::analytic;
  const double intervals[] = {125, 250, 500, 1000, 2000, 4000};
  const double lambdas[] = {1e-4, 2e-4, 1.4e-3, 1.6e-3};
  std::vector<an::ScpRenewalParams> scp_grid;
  std::vector<an::CcpRenewalParams> ccp_grid;
  for (const double interval : intervals) {
    for (const double lambda : lambdas) {
      scp_grid.push_back(
          {interval, lambda, model::CheckpointCosts::paper_scp_flavor()});
      ccp_grid.push_back(
          {interval, lambda, model::CheckpointCosts::paper_ccp_flavor()});
    }
  }
  const double grid = static_cast<double>(scp_grid.size());
  out["analytic.num_scp_us"] = ns_per_call([&](long long) {
                                 for (const auto& p : scp_grid) {
                                   keep(an::num_scp(p));
                                 }
                               }) / grid * 1e-3;
  out["analytic.num_ccp_us"] = ns_per_call([&](long long) {
                                 for (const auto& p : ccp_grid) {
                                   keep(an::num_ccp(p));
                                 }
                               }) / grid * 1e-3;
  // bench_micro's cases: lambda = 1.4e-3 at three interval lengths.
  for (const int interval : {125, 500, 2000}) {
    const an::ScpRenewalParams scp{static_cast<double>(interval), 1.4e-3,
                                   model::CheckpointCosts::paper_scp_flavor()};
    const an::CcpRenewalParams ccp{static_cast<double>(interval), 1.4e-3,
                                   model::CheckpointCosts::paper_ccp_flavor()};
    const std::string suffix = ".i" + std::to_string(interval);
    out["analytic.num_scp_us" + suffix] =
        ns_per_call([&](long long) { keep(an::num_scp(scp)); }) * 1e-3;
    out["analytic.num_ccp_us" + suffix] =
        ns_per_call([&](long long) { keep(an::num_ccp(ccp)); }) * 1e-3;
  }
  out["analytic.adaptive_interval_ns"] = ns_per_call([&](long long i) {
    const double rd = 10'000.0 - static_cast<double>(i & 1023);
    keep(an::adaptive_interval(rd, 3'800.0, 11.0, 5, 1.4e-3).interval);
  });
}

void probe_engine(Metrics& out, SpanRecorder& spans) {
  const auto setup = paper_cell(1.6e-3);
  for (const char* scheme : {"Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C"}) {
    auto policy = adacheck::policy::make_policy(scheme);
    out[std::string("sim.engine_run_us.") + scheme] =
        ns_per_call([&](long long i) {
          if (!policy->reset()) policy = adacheck::policy::make_policy(scheme);
          keep(sim::simulate_seeded(setup, *policy,
                                    static_cast<std::uint64_t>(i) + 1)
                   .energy);
        }, 0.02) * 1e-3;
  }

  // What an empty timed region reads: subtracted from every decision
  // time so the clock's own cost is not charged to the policy.
  std::vector<double> empty;
  for (int i = 0; i < 10'000; ++i) {
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    empty.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  const double timer_ns = median(empty);

  // Decorated runs: every decision counted and timed.  Each timed
  // decision costs two clock reads of which about one shows inside
  // the measured interval, so per decision the policy's own time is
  // the measured mean less one empty-region reading, and the run's
  // self time is its wall time less (measured mean + one reading).
  constexpr int kDecoratedRuns = 1000;
  constexpr int kTracedRuns = 20;  // spans for the trace file only
  for (const char* scheme : {"Poisson", "A_D", "A_D_S", "A_D_C"}) {
    DecisionTally tally;
    double faults = 0, rollbacks = 0, checkpoints = 0;
    double run_us = 0.0;
    {
      TimedPolicy policy(adacheck::policy::make_policy(scheme), tally);
      const auto t0 = Clock::now();
      for (int i = 0; i < kDecoratedRuns; ++i) {
        if (!policy.reset()) throw std::logic_error("policy cannot reset");
        const auto r = sim::simulate_seeded(setup, policy,
                                            static_cast<std::uint64_t>(i) + 1);
        faults += r.faults;
        rollbacks += r.rollbacks;
        checkpoints += r.checkpoints_scp + r.checkpoints_ccp + r.checkpoints_cscp;
      }
      run_us = micros(t0, Clock::now()) / kDecoratedRuns;
    }
    const double per_run = static_cast<double>(tally.decisions.load()) /
                           static_cast<double>(tally.runs.load());
    const double measured_ns = tally.mean_ns();
    const std::string suffix = std::string(".") + scheme;
    out["policy.decisions_per_run" + suffix] = per_run;
    out["policy.decision_us" + suffix] = (measured_ns - timer_ns) * 1e-3;
    out["sim.engine_self_us" + suffix] =
        run_us - per_run * (measured_ns + timer_ns) * 1e-3;
    if (std::string(scheme) == "A_D_S") {
      out["sim.faults_per_run"] = faults / kDecoratedRuns;
      out["sim.rollbacks_per_run"] = rollbacks / kDecoratedRuns;
      out["sim.checkpoints_per_run"] = checkpoints / kDecoratedRuns;
    }

    DecisionTally traced_tally;
    TimedPolicy traced(adacheck::policy::make_policy(scheme), traced_tally, 1,
                       &spans);
    for (int i = 0; i < kTracedRuns; ++i) {
      traced.reset();
      const std::uint64_t id = spans.open("sim.run" + suffix, 0);
      traced.set_parent_span(id);
      sim::simulate_seeded(setup, traced, static_cast<std::uint64_t>(i) + 1);
      spans.close(id);
    }
  }

  // One chunk's MetricSet (tails + checkpoints) merged into a cell's.
  const auto suite = sim::make_metric_suite({"tails", "checkpoints"});
  sim::MetricSet cell = sim::MetricSet::for_cell(setup, suite.get());
  sim::MetricSet chunk = sim::MetricSet::for_cell(setup, suite.get());
  auto policy = adacheck::policy::make_policy("A_D");
  for (int i = 0; i < sim::kRunChunk; ++i) {
    policy->reset();
    const auto r = sim::simulate_seeded(setup, *policy,
                                        static_cast<std::uint64_t>(i) + 1);
    chunk.observe({setup, r, setup.processor.slowest().frequency});
  }
  out["sim.chunk_merge_us"] =
      ns_per_call([&](long long) { cell.merge(chunk); }) * 1e-3;
}

void probe_faults(Metrics& out) {
  for (const char* env : {"poisson", "weibull-infant", "lognormal-heavy",
                          "bursty-orbit", "common-cause"}) {
    adacheck::util::Xoshiro256 rng(7);
    auto source = model::make_fault_source(model::FaultModel{1.6e-3, false},
                                           model::find_environment(env), rng);
    double t = 0.0;
    int processor = 0;
    out[std::string("model.fault_next_ns.") + env] = ns_per_call([&](long long) {
      // Query just past the last fault: exactly one new arrival per call.
      t = source->next_fault_after(
          std::nextafter(t, std::numeric_limits<double>::infinity()),
          processor);
      keep(processor);
    });
  }
  adacheck::util::Xoshiro256 rng(7);
  out["util.rng_exponential_ns"] =
      ns_per_call([&](long long) { keep(rng.exponential(1.4e-3)); });
}

void probe_graph(Metrics& out) {
  const SweepInput input = fault_envs_input(1);
  const auto& spec = input.graphs.at(0);
  adacheck::sched::GraphExecutiveConfig config;
  config.instances = 1;
  config.workers = spec.workers;
  config.scheduler = "edf";
  config.costs = spec.costs;
  config.fault_model = model::FaultModel{1.6e-3, false};
  config.speed_ratio = spec.speed_ratio;
  out["sched.graph_instance_us"] = ns_per_call([&](long long i) {
    config.seed = static_cast<std::uint64_t>(i) + 1;
    keep(adacheck::sched::run_graph_executive(spec.graph, config).total_energy);
  }) * 1e-3;
}

void probe_emit(Metrics& out, const harness::SweepResult& sweep) {
  out["harness.report_emit_ms"] = ns_per_call([&](long long) {
    std::ostringstream os;
    harness::write_sweep_json(sweep, os);
    keep(os);
  }, 0.05) * 1e-6;

  std::vector<harness::ExperimentSpec> specs;
  std::vector<sim::CellResult> cells;
  for (const auto& experiment : sweep.experiments) {
    specs.push_back(experiment.spec);
    for (std::size_t r = 0; r < experiment.cells.size(); ++r) {
      for (std::size_t s = 0; s < experiment.cells[r].size(); ++s) {
        cells.push_back({experiment.cells[r][s], experiment.metrics[r][s]});
      }
    }
  }
  const auto refs = harness::sweep_cell_refs(specs);
  out["harness.jsonl_emit_us_per_cell"] = ns_per_call([&](long long) {
    std::ostringstream os;
    harness::JsonlCellStream stream(os, refs);
    for (std::size_t i = 0; i < cells.size(); ++i) stream.on_cell_done(i, cells[i]);
    keep(os);
  }, 0.05) * 1e-3 / static_cast<double>(cells.size());

  harness::JsonReportOptions no_perf;
  no_perf.include_perf = false;
  const std::string report = harness::sweep_json(sweep, no_perf);
  const auto value = adacheck::util::json::parse(report);
  out["util.canonical_json_us"] = ns_per_call([&](long long) {
    keep(adacheck::util::canonical_json(value));
  }, 0.05) * 1e-3;
  const double hash_ns = ns_per_call([&](long long) {
    keep(adacheck::util::content_hash128(report));
  });
  out["util.content_hash_mb_per_s"] =
      static_cast<double>(report.size()) / (hash_ns * 1e-9) / 1e6;
}

void probe_scenario(Metrics& out, const std::string& document) {
  namespace sc = adacheck::scenario;
  out["scenario.parse_us"] = ns_per_call([&](long long) {
    keep(sc::parse_scenario_text(document));
  }) * 1e-3;
  const sc::ScenarioSpec parsed = sc::parse_scenario_text(document);
  out["scenario.bind_us"] = ns_per_call([&](long long) {
    keep(sc::bind_experiments(parsed));
    keep(sc::bind_graphs(parsed));
  }) * 1e-3;
}

}  // namespace perfbench
