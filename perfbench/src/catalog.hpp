// The metrics the benchmark reports: the names BENCHMARK.json declares
// (its end_to_end and per_layer lists, in that order) and their units.
#pragma once

#include <string_view>

namespace perfbench {

/// Reported with --trace 0.
inline constexpr const char* kEndToEndMetrics[] = {
    "setup_s", "wall_s", "cpu_s", "runs_per_s",
    "submit_to_done_p50_ms", "submit_to_done_p90_ms", "peak_rss_mb"};

/// Reported with --trace 1.
inline constexpr const char* kPerLayerMetrics[] = {
    "analytic.num_scp_us", "analytic.num_ccp_us",
    "analytic.num_scp_us.i125", "analytic.num_scp_us.i500",
    "analytic.num_scp_us.i2000", "analytic.num_ccp_us.i125",
    "analytic.num_ccp_us.i500", "analytic.num_ccp_us.i2000",
    "analytic.adaptive_interval_ns",
    "policy.decisions_per_run.Poisson", "policy.decisions_per_run.A_D",
    "policy.decisions_per_run.A_D_S", "policy.decisions_per_run.A_D_C",
    "policy.decision_us.Poisson", "policy.decision_us.A_D",
    "policy.decision_us.A_D_S", "policy.decision_us.A_D_C",
    "sim.engine_run_us.Poisson", "sim.engine_run_us.k-f-t",
    "sim.engine_run_us.A_D", "sim.engine_run_us.A_D_S",
    "sim.engine_run_us.A_D_C",
    "sim.engine_self_us.Poisson", "sim.engine_self_us.A_D",
    "sim.engine_self_us.A_D_S", "sim.engine_self_us.A_D_C",
    "sim.faults_per_run", "sim.rollbacks_per_run", "sim.checkpoints_per_run",
    "sim.chunk_merge_us", "sim.runs_executed",
    "model.fault_next_ns.poisson", "model.fault_next_ns.weibull-infant",
    "model.fault_next_ns.lognormal-heavy", "model.fault_next_ns.bursty-orbit",
    "model.fault_next_ns.common-cause", "util.rng_exponential_ns",
    "sched.graph_instance_us",
    "core_utilization", "speedup",
    "harness.report_emit_ms", "harness.jsonl_emit_us_per_cell",
    "scenario.parse_us", "scenario.bind_us",
    "util.canonical_json_us", "util.content_hash_mb_per_s",
    "campaign.cold_ms", "campaign.warm_ms",
    "campaign.plan_ms", "campaign.probe_us_per_cell", "campaign.cache_bytes",
    "serve.status_rtt_us", "serve.queue_wait_ms", "serve.run_ms",
    "serve.stream_tail_ms",
    "bench.warmup_s", "bench.trace_overhead_frac",
    "fidelity.paper_cells_beyond_5sigma"};

/// The unit BENCHMARK.json gives the metric, derived from its name.
const char* unit_for(std::string_view name);

}  // namespace perfbench
