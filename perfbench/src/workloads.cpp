#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <array>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "campaign/runner.hpp"
#include "fidelity.hpp"
#include "harness/json_report.hpp"
#include "harness/stream_report.hpp"
#include "inputs.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace harness = adacheck::harness;
namespace sim = adacheck::sim;
namespace campaign = adacheck::campaign;
namespace serve = adacheck::serve;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return micros(from, to) * 1e-6;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Operations whose lines differ from the reference's (a missing or
/// extra line counts as a difference).
std::size_t differing_lines(const std::vector<std::string>& reference,
                            const std::vector<std::string>& lines) {
  std::size_t diff = reference.size() > lines.size()
                         ? reference.size() - lines.size()
                         : lines.size() - reference.size();
  const std::size_t n = std::min(reference.size(), lines.size());
  for (std::size_t i = 0; i < n; ++i) diff += reference[i] != lines[i];
  return diff;
}

// ---------------------------------------------------------------------------
// paper-tables, fault-envs: one harness::run_sweep per pass.
// ---------------------------------------------------------------------------

/// Records each cell's completion time from the start of the pass and,
/// when tracing, a span per cell.  Runner callbacks are serialized, so
/// no locking is needed.
class CellClock final : public sim::ISweepObserver {
 public:
  CellClock(Clock::time_point start, SpanRecorder* spans, std::uint64_t parent)
      : start_(start), spans_(spans), parent_(parent) {}

  void on_cell_start(std::size_t cell) override {
    if (spans_ != nullptr) started_[cell] = Clock::now();
  }
  void on_cell_done(std::size_t cell, const sim::CellResult&) override {
    const auto now = Clock::now();
    latencies_ms.push_back(micros(start_, now) * 1e-3);
    if (spans_ != nullptr) {
      spans_->add("sim.cell", parent_, started_.at(cell), now);
    }
  }

  std::vector<double> latencies_ms;

 private:
  Clock::time_point start_;
  SpanRecorder* spans_;
  std::uint64_t parent_;
  std::map<std::size_t, Clock::time_point> started_;
};

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(bool paper, RunContext context)
      : paper_(paper), context_(std::move(context)) {}

  void setup() override {
    adacheck::util::ThreadPool::shared();  // start the workers
    input_ = paper_ ? paper_tables_input(context_.seed)
                    : fault_envs_input(context_.seed);
    refs_ = harness::sweep_cell_refs(input_.specs, input_.graphs);
    tallies_.clear();
    for (const auto& spec : input_.specs) {
      for (const auto& scheme : spec.schemes) tallies_.try_emplace(scheme);
    }
  }

  PassResult pass(SpanRecorder* spans) override {
    std::ostringstream jsonl;
    harness::JsonlCellStream stream(jsonl, refs_);
    const std::uint64_t root =
        spans != nullptr ? spans->open("harness.run_sweep", 0) : 0;
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    CellClock clock(t0, spans, root);
    sim::ObserverList observers;
    observers.add(&stream).add(&clock);
    harness::SweepOptions options;
    options.observer = &observers;
    last_ = spans != nullptr
                ? run_sweep_timed(input_.specs, input_.graphs, input_.config,
                                  options, tallies_)
                : harness::run_sweep(input_.specs, input_.graphs,
                                     input_.config, options);
    const double c1 = process_cpu_seconds();
    const auto t1 = Clock::now();
    if (spans != nullptr) spans->close(root);

    PassResult result;
    result.wall_s = seconds_between(t0, t1);
    result.cpu_s = c1 - c0;
    result.runs = last_.perf.total_runs;
    result.latencies_ms = std::move(clock.latencies_ms);
    check(jsonl.str(), result);
    return result;
  }

  /// The first spec alone, on the pool and then serially in the
  /// caller: both must reproduce the full pass's lines for its cells.
  /// The pool side repeats for 1.5 s, at least twice: after the serial
  /// passes, the idle vCPUs of a shared host can take over a second to
  /// join in.  Its fastest wall, over the serial one, is the pool's
  /// speedup; that run's CPU time gives the pool's core utilization.
  PassResult final_checks() override {
    PassResult result;
    const std::vector<harness::ExperimentSpec> subset{input_.specs.front()};
    const auto subset_refs = harness::sweep_cell_refs(subset);
    const std::vector<std::string> expected(
        reference_lines_.begin(),
        reference_lines_.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(subset_refs.size(), reference_lines_.size())));
    double pool_wall = 0.0;  // the pool side's fastest
    // Runs the subset, checks its lines, returns its wall seconds.
    const auto run_subset = [&](int threads) {
      sim::MonteCarloConfig config = input_.config;
      config.threads = threads;
      std::ostringstream jsonl;
      harness::JsonlCellStream stream(jsonl, subset_refs);
      harness::SweepOptions options;
      options.observer = &stream;
      const auto t0 = Clock::now();
      const double c0 = process_cpu_seconds();
      const harness::SweepResult run = harness::run_sweep(subset, config, options);
      const double cpu = process_cpu_seconds() - c0;
      const double wall = seconds_between(t0, Clock::now());
      if (threads == 0 && (pool_wall == 0.0 || wall < pool_wall)) {
        pool_wall = wall;
        utilization_ = cpu / (wall * run.perf.threads);
      }
      result.attempted += subset_refs.size();
      result.failed += differing_lines(expected, split_lines(jsonl.str()));
      return wall;
    };
    const auto pool_start = Clock::now();
    for (int runs = 0;
         runs < 2 || seconds_between(pool_start, Clock::now()) < 1.5; ++runs) {
      run_subset(0);
    }
    speedup_ = run_subset(1) / pool_wall;
    return result;
  }

  void layer_metrics(Metrics& out, const SpanRecorder&) const override {
    for (const auto& [scheme, tally] : tallies_) {
      if (tally.runs.load() == 0) continue;
      std::fprintf(stderr, "  %s: %.2f decisions/run, %.3f us/decision\n",
                   scheme.c_str(),
                   static_cast<double>(tally.decisions.load()) /
                       static_cast<double>(tally.runs.load()),
                   tally.mean_ns() * 1e-3);
    }
    if (!paper_) return;
    probe_emit(out, last_);
    out["fidelity.paper_cells_beyond_5sigma"] = cells_beyond(last_, 5.0);
    if (speedup_ > 0.0) out["speedup"] = speedup_;
    if (utilization_ > 0.0) out["core_utilization"] = utilization_;
  }

 private:
  /// Report (without its perf section) and JSONL bytes must equal the
  /// first pass's; every differing cell line is one failed operation.
  void check(const std::string& jsonl, PassResult& result) {
    harness::JsonReportOptions no_perf;
    no_perf.include_perf = false;
    std::string report = harness::sweep_json(last_, no_perf);
    std::vector<std::string> lines = split_lines(jsonl);
    result.attempted = refs_.size();
    if (reference_lines_.empty()) {
      result.failed = lines.size() == refs_.size() ? 0 : refs_.size();
      reference_report_ = std::move(report);
      reference_lines_ = std::move(lines);
      return;
    }
    result.failed = differing_lines(reference_lines_, lines);
    if (result.failed == 0 && report != reference_report_) result.failed = 1;
  }

  bool paper_;
  RunContext context_;
  SweepInput input_;
  std::vector<harness::SweepCellRef> refs_;
  std::map<std::string, DecisionTally> tallies_;
  harness::SweepResult last_;
  std::string reference_report_;
  std::vector<std::string> reference_lines_;
  double speedup_ = 0.0;
  double utilization_ = 0.0;
};

// ---------------------------------------------------------------------------
// The campaign pass: a cold run into an empty cache, then a warm run.
// ---------------------------------------------------------------------------

/// A stream buffer that keeps nothing but the time each line ends.
class LineClock final : public std::streambuf {
 public:
  std::vector<Clock::time_point> line_ends;

 protected:
  int_type overflow(int_type c) override {
    if (c == '\n') line_ends.push_back(Clock::now());
    return traits_type::not_eof(c);
  }
};

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(RunContext context) : context_(std::move(context)) {}

  void setup() override {
    adacheck::util::ThreadPool::shared();
    dir_ = context_.work_dir / ("campaign-" + std::to_string(context_.seed));
    std::filesystem::remove_all(dir_);
    spec_ = write_campaign_inputs(dir_, context_.seed);
  }

  void teardown() override { std::filesystem::remove_all(dir_); }

  PassResult pass(SpanRecorder* spans) override {
    std::filesystem::remove_all(spec_.cache_dir);
    LineClock clock;
    std::ostream status(&clock);
    std::ostringstream cold_jsonl, warm_jsonl;
    campaign::CampaignOptions options;
    options.cache_dir = spec_.cache_dir;
    options.status = &status;
    options.jsonl = &cold_jsonl;

    const double c0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const campaign::CampaignResult cold = campaign::run_campaign(spec_, options);
    const auto t1 = Clock::now();
    options.status = nullptr;
    options.jsonl = &warm_jsonl;
    const campaign::CampaignResult warm = campaign::run_campaign(spec_, options);
    const auto t2 = Clock::now();
    const double c1 = process_cpu_seconds();

    PassResult result;
    result.wall_s = seconds_between(t0, t2);
    result.cpu_s = c1 - c0;
    for (const auto& end : clock.line_ends) {
      result.latencies_ms.push_back(micros(t0, end) * 1e-3);
    }
    for (const auto& o : cold.outcomes) result.runs += o.runs_executed;
    for (const auto& o : warm.outcomes) result.runs += o.runs_executed;
    if (spans != nullptr) trace(*spans, t0, t1, t2);
    check(cold, warm, cold_jsonl.str(), warm_jsonl.str(), result);
    return result;
  }

  void layer_metrics(Metrics& out, const SpanRecorder&) const override {
    out["campaign.cold_ms"] = median(cold_ms_);
    out["campaign.warm_ms"] = median(warm_ms_);
    out["campaign.plan_ms"] = median(plan_ms_);
    out["campaign.probe_us_per_cell"] = median(probe_us_);
    out["campaign.cache_bytes"] = cache_bytes_;
  }

 private:
  /// Pass spans and the cold/warm split, plus planning, probing and
  /// listing the now-warm cache.
  void trace(SpanRecorder& spans, Clock::time_point t0, Clock::time_point t1,
             Clock::time_point t2) {
    const std::uint64_t root = spans.add("campaign.pass", 0, t0, t2);
    spans.add("campaign.run_cold", root, t0, t1);
    spans.add("campaign.run_warm", root, t1, t2);
    cold_ms_.push_back(micros(t0, t1) * 1e-3);
    warm_ms_.push_back(micros(t1, t2) * 1e-3);

    const auto p0 = Clock::now();
    const campaign::CampaignPlan plan = campaign::plan_campaign(spec_);
    const auto p1 = Clock::now();
    spans.add("campaign.plan", 0, p0, p1);
    plan_ms_.push_back(micros(p0, p1) * 1e-3);
    bool all_cached = true;
    for (const auto& cell : plan.cells) {
      all_cached &= campaign::cache_probe(spec_.cache_dir, cell.fingerprint);
    }
    const auto p2 = Clock::now();
    spans.add("campaign.cache_probe", 0, p1, p2);
    probe_us_.push_back(micros(p1, p2) / static_cast<double>(plan.cells.size()));
    if (!all_cached) ++probe_failures_;
    cache_bytes_ = 0.0;
    for (const auto& entry : campaign::cache_ls(spec_.cache_dir)) {
      cache_bytes_ += static_cast<double>(entry.bytes);
    }
  }

  /// Cold: every cell executed, cell bytes equal the first pass's.
  /// Warm: every cell cached with zero runs, JSONL equal to cold's.
  void check(const campaign::CampaignResult& cold,
             const campaign::CampaignResult& warm, const std::string& cold_jsonl,
             const std::string& warm_jsonl, PassResult& result) {
    const std::size_t n = cold.outcomes.size();
    result.attempted = 2 * n;
    if (reference_hashes_.empty()) {
      for (const auto& o : cold.outcomes) reference_hashes_.push_back(o.result_hash);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& c = cold.outcomes[i];
      result.failed += c.status != campaign::CellStatus::kExecuted ||
                       i >= reference_hashes_.size() ||
                       c.result_hash != reference_hashes_[i];
      const bool warm_ok = i < warm.outcomes.size() &&
                           warm.outcomes[i].status == campaign::CellStatus::kCached &&
                           warm.outcomes[i].runs_executed == 0 &&
                           warm.outcomes[i].result_hash == c.result_hash;
      result.failed += !warm_ok;
    }
    if (result.failed == 0 && warm_jsonl != cold_jsonl) result.failed = 1;
    result.failed += probe_failures_;
    probe_failures_ = 0;
  }

  RunContext context_;
  std::filesystem::path dir_;
  campaign::CampaignSpec spec_;
  std::vector<std::string> reference_hashes_;
  std::vector<double> cold_ms_, warm_ms_, plan_ms_, probe_us_;
  double cache_bytes_ = 0.0;
  std::size_t probe_failures_ = 0;
};

// ---------------------------------------------------------------------------
// serve-loop: two closed-loop clients against an in-process server.
// ---------------------------------------------------------------------------

constexpr int kServeClients = 2;
constexpr int kServeWorkers = 2;
constexpr int kJobsPerClient = 50;  ///< 100 jobs a pass: a p90 with 10 beyond it
constexpr std::size_t kServeDocuments = 16;
constexpr int kStatusProbes = 50;

struct JobRecord {
  std::uint64_t id = 0;
  std::size_t document = 0;
  Clock::time_point submitted;
  Clock::time_point eot;
  std::string streamed;
  bool ok = false;
};

/// submit, then stream to the EOT line; false on any protocol error.
bool run_job(serve::LineClient& client, const std::string& document,
             JobRecord& job) {
  namespace json = adacheck::util::json;
  job.submitted = Clock::now();
  client.send_line("{\"req\":\"submit\",\"source\":\"perfbench\",\"scenario\":" +
                   document + "}");
  const auto ack = client.recv_line();
  if (!ack) return false;
  const json::Value ack_doc = json::parse(*ack);
  const json::Value* ok = ack_doc.find("ok");
  const json::Value* id = ack_doc.find("job");
  if (ok == nullptr || !ok->as_bool() || id == nullptr) return false;
  job.id = static_cast<std::uint64_t>(id->as_int());
  client.send_line("{\"req\":\"stream\",\"job\":" + std::to_string(job.id) + "}");
  if (!client.recv_line()) return false;  // the opening response
  for (;;) {
    auto line = client.recv_line();
    if (!line) return false;
    if (line->find(serve::kEotSchema) != std::string::npos) {
      job.eot = Clock::now();
      const json::Value eot = json::parse(*line);
      const json::Value* state = eot.find("state");
      const json::Value* bytes = eot.find("bytes");
      return state != nullptr && state->as_string() == "done" &&
             bytes != nullptr &&
             static_cast<std::size_t>(bytes->as_int()) == job.streamed.size();
    }
    job.streamed += *line;
    job.streamed += '\n';
  }
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(RunContext context) : context_(std::move(context)) {}
  ~ServeWorkload() override { teardown(); }

  void setup() override {
    adacheck::util::ThreadPool::shared();
    documents_ = serve_documents(context_.seed, kServeDocuments);
    serve::ServerOptions options;
    options.port = 0;
    options.jobs.workers = kServeWorkers;
    options.jobs.before_job = [this](std::uint64_t id) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(started_mu_);
      started_[id] = now;
    };
    server_ = std::make_unique<serve::Server>(options);
    server_thread_ = std::thread([this] { server_->run(); });
    for (auto& client : clients_) {
      client = std::make_unique<serve::LineClient>("127.0.0.1", server_->port());
    }
  }

  void teardown() override {
    for (auto& client : clients_) client.reset();
    if (server_) server_->request_shutdown();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
  }

  PassResult pass(SpanRecorder* spans) override {
    std::vector<std::vector<JobRecord>> jobs(kServeClients);
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([this, c, &jobs] { client_loop(c, jobs[c]); });
    }
    for (auto& t : threads) t.join();
    const double c1 = process_cpu_seconds();
    const auto t1 = Clock::now();

    PassResult result;
    result.wall_s = seconds_between(t0, t1);
    result.cpu_s = c1 - c0;
    std::uint64_t last_id = 0;
    for (const auto& client_jobs : jobs) {
      for (const JobRecord& job : client_jobs) {
        ++result.attempted;
        const auto info = job.id != 0 ? server_->jobs().status(job.id)
                                      : std::nullopt;
        const bool ok = job.ok && info && info->state == serve::JobState::kDone &&
                        job.streamed == reference(job.document);
        if (!ok) {
          // A failed job misses every latency limit that any job of
          // this pass met.
          ++result.failed;
          result.latencies_ms.push_back(result.wall_s * 1e3);
          continue;
        }
        last_id = job.id;
        result.runs += info->runs_executed;
        result.latencies_ms.push_back(micros(job.submitted, job.eot) * 1e-3);
        if (spans != nullptr) trace(*spans, job, info->wall_seconds);
      }
    }
    if (spans != nullptr && last_id != 0) probe_status(*spans, last_id);
    return result;
  }

  /// The stream tail is the job span's self time: submit-to-EOT minus
  /// the queue wait and the run.
  void layer_metrics(Metrics& out, const SpanRecorder& spans) const override {
    out["serve.status_rtt_us"] = median(status_rtt_us_);
    out["serve.queue_wait_ms"] = median(queue_wait_ms_);
    out["serve.run_ms"] = median(run_ms_);
    out["serve.stream_tail_ms"] =
        spans.self_times().at("serve.job").mean_us() * 1e-3;
    probe_scenario(out, documents_.front());
  }

 private:
  void client_loop(int c, std::vector<JobRecord>& jobs) {
    // Exceptions end this client's loop; its unrun jobs count as failed.
    jobs.resize(kJobsPerClient);
    try {
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobRecord& job = jobs[static_cast<std::size_t>(j)];
        job.document =
            static_cast<std::size_t>(c * kJobsPerClient + j) % documents_.size();
        job.ok = run_job(*clients_[static_cast<std::size_t>(c)],
                         documents_[job.document], job);
        if (!job.ok) break;
      }
    } catch (const std::exception&) {
    }
  }

  /// The batch JSONL of a document: scenario::run_scenario with a
  /// JsonlCellStream, computed once per document.
  const std::string& reference(std::size_t document) {
    auto it = references_.find(document);
    if (it == references_.end()) {
      namespace sc = adacheck::scenario;
      const sc::ScenarioSpec spec = sc::parse_scenario_text(documents_[document]);
      std::ostringstream jsonl;
      harness::JsonlCellStream stream(
          jsonl, harness::sweep_cell_refs(sc::bind_experiments(spec),
                                          sc::bind_graphs(spec)));
      harness::SweepOptions options;
      options.observer = &stream;
      sc::run_scenario(spec, options);
      it = references_.emplace(document, jsonl.str()).first;
    }
    return it->second;
  }

  /// A job span with its queue wait and run as children.
  void trace(SpanRecorder& spans, const JobRecord& job, double run_seconds) {
    Clock::time_point started;
    {
      std::lock_guard<std::mutex> lock(started_mu_);
      started = started_.at(job.id);
    }
    const auto finished =
        started + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(run_seconds));
    const std::uint64_t root = spans.add("serve.job", 0, job.submitted, job.eot);
    spans.add("serve.queue_wait", root, job.submitted, started);
    spans.add("serve.run", root, started, finished);
    queue_wait_ms_.push_back(micros(job.submitted, started) * 1e-3);
    run_ms_.push_back(run_seconds * 1e3);
  }

  /// Round trips of the `status` verb, which runs no simulation.
  void probe_status(SpanRecorder& spans, std::uint64_t job) {
    auto& client = *clients_.front();
    const std::string request =
        "{\"req\":\"status\",\"job\":" + std::to_string(job) + "}";
    for (int i = 0; i < kStatusProbes; ++i) {
      const auto t0 = Clock::now();
      client.send_line(request);
      if (!client.recv_line()) throw std::runtime_error("status: connection closed");
      const auto t1 = Clock::now();
      spans.add("serve.status", 0, t0, t1);
      status_rtt_us_.push_back(micros(t0, t1));
    }
  }

  RunContext context_;
  std::vector<std::string> documents_;
  std::map<std::size_t, std::string> references_;
  std::mutex started_mu_;  ///< guards started_
  std::map<std::uint64_t, Clock::time_point> started_;
  std::vector<double> status_rtt_us_, queue_wait_ms_, run_ms_;
  std::unique_ptr<serve::Server> server_;
  std::array<std::unique_ptr<serve::LineClient>, kServeClients> clients_;
  std::thread server_thread_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& context) {
  if (name == "paper-tables") return std::make_unique<SweepWorkload>(true, context);
  if (name == "fault-envs") return std::make_unique<SweepWorkload>(false, context);
  if (name == "campaign-cache") return std::make_unique<CampaignWorkload>(context);
  if (name == "serve-loop") return std::make_unique<ServeWorkload>(context);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace perfbench
