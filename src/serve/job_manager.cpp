#include "serve/job_manager.hpp"

#include <sstream>
#include <utility>

#include "harness/stream_report.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/binder.hpp"

namespace adacheck::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Telemetry handles (gated on Registry::enabled(); see obs/registry.hpp).
struct ServeMetrics {
  obs::Counter& jobs_submitted;
  obs::Counter& jobs_done;
  obs::Counter& jobs_failed;
  obs::Counter& jobs_cancelled;
  obs::Counter& rejected_queue_full;
  obs::Counter& jobs_evicted;
  obs::Gauge& queue_depth;
  obs::Gauge& jobs_retained;

  static ServeMetrics& get() {
    static ServeMetrics* const metrics = new ServeMetrics{
        obs::Registry::instance().counter("serve.jobs_submitted"),
        obs::Registry::instance().counter("serve.jobs_done"),
        obs::Registry::instance().counter("serve.jobs_failed"),
        obs::Registry::instance().counter("serve.jobs_cancelled"),
        obs::Registry::instance().counter("serve.rejected_queue_full"),
        obs::Registry::instance().counter("serve.jobs_evicted"),
        obs::Registry::instance().gauge("serve.queue_depth"),
        obs::Registry::instance().gauge("serve.jobs_retained")};
    return *metrics;
  }
};

/// Terminal-state accounting shared by every path that parks a job in
/// done/failed/cancelled (worker finish, queued cancel, shutdown,
/// invalid submission).
void count_terminal(JobState state) {
  if (!obs::Registry::instance().enabled()) return;
  auto& metrics = ServeMetrics::get();
  switch (state) {
    case JobState::kDone: metrics.jobs_done.add(1); break;
    case JobState::kFailed: metrics.jobs_failed.add(1); break;
    case JobState::kCancelled: metrics.jobs_cancelled.add(1); break;
    default: break;
  }
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

struct JobManager::Job {
  std::uint64_t id = 0;
  JobRequest request;
  JobState state = JobState::kQueued;
  std::size_t cells_total = 0;
  std::size_t cells_done = 0;
  long long runs_done = 0;
  long long runs_executed = 0;
  std::string jsonl;
  std::string error;
  sim::CancellationToken cancel;
  Clock::time_point started;
  double wall_seconds = 0.0;  ///< frozen at the terminal transition
  /// obs::now_micros() stamps for the lifecycle trace spans ("job N
  /// queued" from submit to pick, "job N run" from pick to terminal);
  /// 0 when telemetry was off at submit time.
  std::uint64_t submitted_us = 0;
  std::uint64_t run_start_us = 0;
  /// Live StreamReaders plus the executing worker; > 0 blocks eviction.
  std::size_t pins = 0;

  JobInfo info() const {
    JobInfo info;
    info.id = id;
    info.name = request.scenario.name;
    info.source = request.source;
    info.state = state;
    info.priority = request.priority;
    info.cells_total = cells_total;
    info.cells_done = cells_done;
    info.runs_done = runs_done;
    info.runs_executed = runs_executed;
    info.jsonl_bytes = jsonl.size();
    info.error = error;
    info.wall_seconds =
        state == JobState::kRunning ? seconds_since(started) : wall_seconds;
    return info;
  }
};

/// Observer bridging one job's sweep to the manager: feeds the
/// JsonlCellStream, then moves every freshly completed line into the
/// job under the manager lock so stream_wait() sees it immediately.
/// Sweep callbacks are serialized by the runner, so the buffer needs
/// no locking of its own.
class JobManager::SweepAdapter final : public sim::ISweepObserver {
 public:
  SweepAdapter(JobManager& manager, Job& job,
               std::vector<harness::SweepCellRef> refs)
      : manager_(manager), job_(job), stream_(buffer_, std::move(refs)) {}

  void on_cell_done(std::size_t cell,
                    const sim::CellResult& result) override {
    stream_.on_cell_done(cell, result);
    std::string bytes = buffer_.str();
    buffer_.str(std::string());
    manager_.publish(job_, std::move(bytes), /*cell_done=*/true);
  }

  void on_progress(const sim::SweepProgress& progress) override {
    manager_.progress(job_, progress);
  }

 private:
  JobManager& manager_;
  Job& job_;
  std::ostringstream buffer_;
  harness::JsonlCellStream stream_;
};

JobManager::JobManager(Options options) : options_(std::move(options)) {
  if (options_.max_queued < 1) options_.max_queued = 1;
  if (options_.max_retained < 1) options_.max_retained = 1;
  const int workers = options_.workers < 1 ? 1 : options_.workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobManager::~JobManager() { shutdown(); }

std::uint64_t JobManager::submit(JobRequest request) {
  // Bind outside the lock: binding validates the document (throws
  // ScenarioError before a job exists) and the result is discarded —
  // the worker re-binds when the job runs.
  const std::size_t cells =
      harness::sweep_cell_refs(scenario::bind_experiments(request.scenario),
                               scenario::bind_graphs(request.scenario))
          .size();

  const bool telemetry = obs::Registry::instance().enabled();
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) throw std::runtime_error("job manager is shut down");
  if (queued_ >= options_.max_queued) {
    if (telemetry) ServeMetrics::get().rejected_queue_full.add(1);
    throw QueueFull(options_.max_queued);
  }
  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->request = std::move(request);
  job->cells_total = cells;
  if (telemetry) job->submitted_us = obs::now_micros();
  const std::uint64_t id = job->id;
  jobs_.emplace(id, std::move(job));
  ++queued_;
  if (telemetry) {
    auto& metrics = ServeMetrics::get();
    metrics.jobs_submitted.add(1);
    metrics.queue_depth.set(static_cast<long long>(queued_));
  }
  queue_cv_.notify_one();
  return id;
}

std::uint64_t JobManager::record_invalid(std::string source,
                                         std::string error) {
  std::unique_lock<std::mutex> lock(mu_);
  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->request.source = std::move(source);
  job->state = JobState::kFailed;
  job->error = std::move(error);
  const std::uint64_t id = job->id;
  jobs_.emplace(id, std::move(job));
  count_terminal(JobState::kFailed);
  retire_locked(id);
  stream_cv_.notify_all();
  return id;
}

JobManager::Job* JobManager::find_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

std::optional<JobInfo> JobManager::status(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  const Job* job = find_locked(id);
  if (job == nullptr) return std::nullopt;
  return job->info();
}

std::vector<JobInfo> JobManager::list() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<JobInfo> infos;
  infos.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) infos.push_back(job->info());
  return infos;
}

std::optional<JobState> JobManager::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  Job* job = find_locked(id);
  if (job == nullptr) return std::nullopt;
  return cancel_locked(*job);
}

JobState JobManager::cancel_locked(Job& job) {
  if (job.state == JobState::kQueued) {
    job.state = JobState::kCancelled;
    --queued_;
    count_terminal(JobState::kCancelled);
    if (obs::Registry::instance().enabled()) {
      ServeMetrics::get().queue_depth.set(static_cast<long long>(queued_));
    }
    stream_cv_.notify_all();
    retire_locked(job.id);  // may evict `job` itself if all older are pinned
    return JobState::kCancelled;
  }
  if (job.state == JobState::kRunning) job.cancel.request_stop();
  return job.state;
}

void JobManager::retire_locked(std::uint64_t id) {
  retired_.push_back(id);
  long long evicted = 0;
  // Oldest first, passing over pinned jobs.
  for (auto it = retired_.begin();
       retired_.size() > options_.max_retained && it != retired_.end();) {
    if (jobs_.at(*it)->pins > 0) {
      ++it;
      continue;
    }
    jobs_.erase(*it);
    it = retired_.erase(it);
    ++evicted;
  }
  if (obs::Registry::instance().enabled()) {
    auto& metrics = ServeMetrics::get();
    metrics.jobs_retained.set(static_cast<long long>(retired_.size()));
    metrics.jobs_evicted.add(evicted);
  }
}

JobManager::StreamReader::StreamReader(const JobManager& manager, Job& job)
    : manager_(manager), job_(job) {}

JobManager::StreamReader::~StreamReader() {
  std::unique_lock<std::mutex> lock(manager_.mu_);
  --job_.pins;
}

JobManager::StreamChunk JobManager::StreamReader::wait(
    std::size_t offset) const {
  std::unique_lock<std::mutex> lock(manager_.mu_);
  manager_.stream_cv_.wait(lock, [&] {
    return manager_.stop_ || is_terminal(job_.state) ||
           job_.jsonl.size() > offset;
  });
  StreamChunk chunk;
  chunk.state = job_.state;
  if (offset < job_.jsonl.size()) {
    chunk.bytes = job_.jsonl.substr(offset);
  }
  chunk.terminal = is_terminal(job_.state) &&
                   offset + chunk.bytes.size() >= job_.jsonl.size();
  // A manager shutdown must not leave streamers spinning on a job that
  // will never progress again.
  if (manager_.stop_) chunk.terminal = true;
  return chunk;
}

std::optional<JobManager::StreamReader> JobManager::open_stream(
    std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  Job* job = find_locked(id);
  if (job == nullptr) return std::nullopt;
  ++job->pins;
  return std::optional<StreamReader>(std::in_place, *this, *job);
}

JobManager::StreamChunk JobManager::stream_wait(std::uint64_t id,
                                                std::size_t offset) const {
  const auto reader = open_stream(id);
  if (!reader) throw std::out_of_range("unknown job " + std::to_string(id));
  return reader->wait(offset);
}

std::size_t JobManager::queued() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queued_;
}

void JobManager::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_) {
      stop_ = true;
      // Collected first: cancelling a queued job retires it, and
      // retiring may erase entries of jobs_.
      std::vector<Job*> live;
      for (auto& [id, job] : jobs_) {
        if (!is_terminal(job->state)) live.push_back(job.get());
      }
      for (Job* job : live) cancel_locked(*job);
    }
    queue_cv_.notify_all();
    stream_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

JobManager::Job* JobManager::pick_locked() {
  Job* best = nullptr;
  for (auto& [id, job] : jobs_) {
    if (job->state != JobState::kQueued) continue;
    if (best == nullptr || job->request.priority > best->request.priority) {
      best = job.get();  // ids iterate ascending: first of a priority wins
    }
  }
  return best;
}

void JobManager::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stop_ || pick_locked() != nullptr; });
    if (stop_) return;
    Job* job = pick_locked();
    if (job == nullptr) continue;
    job->state = JobState::kRunning;
    job->started = Clock::now();
    --queued_;
    if (obs::Registry::instance().enabled()) {
      ServeMetrics::get().queue_depth.set(static_cast<long long>(queued_));
      job->run_start_us = obs::now_micros();
      if (job->submitted_us != 0) {
        // The queued phase of the job's lifecycle, now that it ended.
        obs::Tracer::instance().complete(
            "job " + std::to_string(job->id) + " queued", "serve",
            job->submitted_us, job->run_start_us - job->submitted_us);
      }
    }
    ++job->pins;  // execute() holds *job until it returns
    lock.unlock();
    execute(*job);
    lock.lock();
    --job->pins;
    stream_cv_.notify_all();
  }
}

void JobManager::execute(Job& job) {
  const auto finish = [&](JobState state, std::string error,
                          long long runs) {
    std::unique_lock<std::mutex> lock(mu_);
    job.state = state;
    job.error = std::move(error);
    job.runs_executed = runs;
    job.wall_seconds = seconds_since(job.started);
    count_terminal(state);
    retire_locked(job.id);
    if (job.run_start_us != 0 && obs::Registry::instance().enabled()) {
      obs::Tracer::instance().complete(
          "job " + std::to_string(job.id) + " run", "serve",
          job.run_start_us, obs::now_micros() - job.run_start_us);
    }
    stream_cv_.notify_all();
  };
  try {
    if (options_.before_job) options_.before_job(job.id);
    scenario::ScenarioSpec to_run = job.request.scenario;
    if (job.request.threads > 0) {
      to_run.config.threads = job.request.threads;
    }
    const auto specs = scenario::bind_experiments(to_run);
    const auto graphs = scenario::bind_graphs(to_run);
    SweepAdapter adapter(*this, job,
                         harness::sweep_cell_refs(specs, graphs));
    harness::SweepOptions options;
    options.observer = &adapter;
    options.cancel = &job.cancel;
    const auto sweep = harness::run_sweep(
        specs, graphs, scenario::monte_carlo_config(to_run), options);
    finish(JobState::kDone, "", sweep.perf.total_runs);
  } catch (const sim::SweepCancelled&) {
    finish(JobState::kCancelled, "", job.runs_done);
  } catch (const std::exception& e) {
    finish(JobState::kFailed,
           "job " + std::to_string(job.id) + ": " + e.what(), 0);
  }
}

void JobManager::publish(Job& job, std::string bytes, bool cell_done) {
  std::unique_lock<std::mutex> lock(mu_);
  if (cell_done) ++job.cells_done;
  if (!bytes.empty()) {
    job.jsonl += bytes;
    stream_cv_.notify_all();
  }
}

void JobManager::progress(Job& job, const sim::SweepProgress& progress) {
  std::unique_lock<std::mutex> lock(mu_);
  job.runs_done = progress.runs_done;
}

}  // namespace adacheck::serve
