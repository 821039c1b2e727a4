#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/next_up.hpp"
#include "util/rng.hpp"

namespace adacheck::sim {

namespace {

int popcount(unsigned mask) noexcept { return std::popcount(mask); }

/// Mutable run state shared by the helpers below.  The run loop is a
/// template over the fault source: simulate_seeded instantiates it per
/// concrete (final) stochastic source, so each fault query is a direct,
/// inlinable call; simulate() keeps the virtual FaultSource path.
template <class Source>
struct EngineState {
  const SimSetup* setup = nullptr;
  const EngineConfig* config = nullptr;
  Source* faults = nullptr;
  RunResult* result = nullptr;

  double committed = 0.0;   ///< cycles banked at consistent checkpoints
  double now = 0.0;         ///< wall-clock time
  double exposure = 0.0;    ///< cumulative vulnerable time
  int remaining_faults = 0; ///< R_f
  unsigned carry_mask = 0;  ///< replicas corrupted by trailing overhead ops
  double last_frequency = 0.0;
  std::size_t steps = 0;

  int redundancy() const noexcept { return setup->fault_model.processors; }

  double remaining_cycles() const noexcept {
    return setup->task.cycles - committed;
  }

  void trace(TraceEventKind kind, double value = 0.0, int aux = 0) {
    if (config->record_trace) result->trace.push(kind, now, value, aux);
  }

  void bump_steps() {
    if (++steps > config->max_steps) {
      throw std::runtime_error(
          "engine: step limit exceeded (degenerate checkpoint plan?)");
    }
  }

  /// Collects faults on the exposure window [exposure, exposure+span)
  /// and returns the bitmask of replicas struck.  A common-cause
  /// arrival (processor == model::kAllReplicas) strikes every replica.
  unsigned collect_faults(double span) {
    unsigned mask = 0;
    const double window_end = exposure + span;
    double cursor = exposure;
    int processor = 0;
    for (;;) {
      const double t = faults->next_fault_after(cursor, processor);
      if (!(t < window_end)) break;
      ++result->faults;
      if (config->record_trace) {
        // Both wall-clock time and the exposure coordinate (for replay).
        result->trace.push(TraceEventKind::kFault, now + (t - exposure), t,
                           processor);
      }
      // ~0u >> (32 - n) rather than (1u << n) - 1: n may be the full
      // mask width (kMaxProcessors == 32), where the left shift is UB.
      mask |= processor == model::kAllReplicas
                  ? ~0u >> (32 - redundancy())
                  : 1u << processor;
      cursor = util::next_up(t);
    }
    exposure = window_end;
    return mask;
  }

  /// Executes a computation window of `duration` time at `level`.
  /// Returns the replica-fault mask for the window.
  unsigned run_computation(const model::SpeedLevel& level, double duration,
                           int sub_index) {
    const unsigned mask = collect_faults(duration);
    now += duration;
    result->meter.charge(level, duration * level.frequency);
    trace(TraceEventKind::kSegment, duration * level.frequency, sub_index);
    return mask;
  }

  /// Executes a checkpoint/vote/rollback operation of `cycles` cycles.
  /// Faults strike during the operation only when
  /// faults_during_overhead is set.
  unsigned run_overhead(const model::SpeedLevel& level, double cycles) {
    if (cycles <= 0.0) return 0;
    const double duration = cycles / level.frequency;
    unsigned mask = 0;
    if (setup->fault_model.faults_during_overhead) {
      mask = collect_faults(duration);
    }
    now += duration;
    result->meter.charge(level, cycles);
    return mask;
  }

  /// Banks `cycles` of work at an interval-end CSCP; `carry` is the
  /// corruption the next attempt inherits.
  void commit(double cycles, unsigned carry) {
    ++result->checkpoints_cscp;
    committed += cycles;
    trace(TraceEventKind::kCommit, committed);
    carry_mask = carry;
  }
};

/// Corruption bookkeeping for one interval attempt: which replicas have
/// faulted since the last consistency point, in which sub-interval the
/// first fault landed, and in which sub-interval the healthy majority
/// was first lost (the voting rollback boundary — SCPs up to there
/// still hold a recoverable majority).  For N replicas the majority is
/// lost once ceil(N/2) distinct replicas are corrupted (2-of-3 for the
/// paper's TMR).
struct AttemptCorruption {
  unsigned mask = 0;
  int majority_count = 2;  ///< corrupted-replica count that kills majority
  int first_sub = 0;       ///< 0 = clean
  int majority_sub = 0;    ///< 0 = majority still holds

  void note(unsigned new_mask, int sub) {
    if (new_mask == 0) return;
    if (first_sub == 0) first_sub = sub;
    const unsigned merged = mask | new_mask;
    if (majority_sub == 0 && popcount(merged) >= majority_count) {
      majority_sub = sub;
    }
    mask = merged;
  }
  void clear() { *this = AttemptCorruption{.majority_count = majority_count}; }
  bool corrupted() const noexcept { return mask != 0; }
};

void validate_decision(const Decision& d) {
  if (!(d.speed.frequency > 0.0) || !(d.speed.voltage > 0.0)) {
    throw std::invalid_argument("engine: decision with non-positive speed");
  }
  if (d.abort) return;  // intervals unused
  if (!(d.cscp_interval > 0.0)) {
    throw std::invalid_argument("engine: decision with non-positive Itv");
  }
  if (d.inner != InnerKind::kNone && !(d.sub_interval > 0.0)) {
    throw std::invalid_argument("engine: decision with non-positive itv");
  }
}

/// How an attempt over `outer` time splits into sub-intervals.  The
/// planned sub length is preserved (the paper inserts checkpoints by
/// length), so the last sub-interval may be shorter.
struct Split {
  double outer = 0.0;
  double sub = 0.0;
  double last = 0.0;  ///< the last sub-interval's length
  int count = 1;
};

Split split_interval(const Decision& d, double outer) {
  const double sub = d.inner == InnerKind::kNone
                         ? outer
                         : std::min(d.sub_interval, outer);
  if (!(outer > 0.0) || !(sub > 0.0)) {
    throw std::invalid_argument("engine: non-positive checkpoint interval");
  }
  if (d.inner == InnerKind::kNone) return {outer, sub, outer, 1};
  // ceil(outer / sub - 1e-9) without the libm call: truncate, then step
  // up past a dropped fraction (exact wherever the int cast is defined).
  const double n_real = outer / sub - 1e-9;
  const int truncated = static_cast<int>(n_real);
  const int count = std::max(1, truncated + (truncated < n_real ? 1 : 0));
  return {outer, sub, outer - static_cast<double>(count - 1) * sub, count};
}

/// A validated decision plus the split of an attempt over its full
/// Itv, worked out once when the decision arrives: every attempt but
/// one clamped to the remaining work reuses it.
struct Plan {
  Decision decision;
  Split full;
  /// Remaining work from which no attempt is clamped, skipping the
  /// divide in next_attempt: division by f > 0 rounds monotonically,
  /// so every rc >= unclamped_from has rc / f >= unclamped_from / f >=
  /// Itv.  Infinite when Itv * f fails that check (never skips).
  double unclamped_from = std::numeric_limits<double>::infinity();

  explicit Plan(const Decision& d) : decision(d) {
    validate_decision(d);
    if (d.abort) return;
    full = split_interval(d, d.cscp_interval);
    const double f = d.speed.frequency;
    const double work = d.cscp_interval * f;
    if (work / f >= d.cscp_interval) unclamped_from = work;
  }

  /// The split of the next attempt with `remaining_cycles` of work
  /// left: the plan clamped to the remaining work.  Interval lengths
  /// are wall clock at the plan's speed; work is cycles.
  Split next_attempt(double remaining_cycles) const {
    if (remaining_cycles >= unclamped_from) return full;
    const double remaining_time =
        remaining_cycles / decision.speed.frequency;
    return remaining_time < decision.cscp_interval
               ? split_interval(decision, remaining_time)
               : full;
  }
};

/// Result of executing one CSCP-interval attempt.
enum class AttemptOutcome {
  kCommitted,       ///< interval committed cleanly
  kCommittedVoted,  ///< committed after a majority-vote correction (TMR)
  kFaultDetected,   ///< rolled back; policy must re-plan
};

/// Executes one outer interval under `decision`.
///
/// DMR (2 replicas): any comparison that sees corruption triggers a
/// rollback — to the last good SCP (SCP mode) or the interval start
/// (CCP/None mode).
/// NMR (N >= 3 replicas, the paper's TMR generalized): a comparison
/// seeing a corrupted strict minority majority-votes it back to health
/// (cost t_r, no work lost); once a majority cannot be formed the
/// comparison forces a rollback, to the last SCP that still has a
/// healthy majority (SCP mode) or to the interval start (CCP/None
/// mode).
template <class Source>
AttemptOutcome execute_interval(EngineState<Source>& st, const Plan& plan) {
  const Decision& decision = plan.decision;
  const auto& level = decision.speed;
  const auto& costs = st.setup->costs;
  const double f = level.frequency;
  const int n_rep = st.redundancy();
  const bool voting = n_rep >= 3;

  const Split split = plan.next_attempt(st.remaining_cycles());
  const double itv_outer = split.outer;
  const double itv_sub = split.sub;
  const int n_subs = split.count;

  // Corruption carried over from a trailing overhead fault of the
  // previous interval poisons the attempt from its start.
  AttemptCorruption corrupt;
  // ceil(N/2) corrupted replicas leave no healthy strict majority.
  corrupt.majority_count = (n_rep + 1) / 2;
  corrupt.note(st.carry_mask, 1);
  st.carry_mask = 0;

  // A comparison seeing a corrupted strict minority can vote it back.
  const auto votable = [&] {
    return voting && popcount(corrupt.mask) * 2 < n_rep;
  };
  const auto vote_correct = [&](unsigned op_mask, int next_sub) {
    ++st.result->corrections;
    --st.remaining_faults;
    st.trace(TraceEventKind::kCorrection, 0.0,
             static_cast<int>(corrupt.mask));
    const unsigned repair_mask = st.run_overhead(level, costs.rollback);
    corrupt.clear();
    corrupt.note(op_mask | repair_mask, next_sub);
  };

  bool voted_this_interval = false;

  for (int i = 1; i <= n_subs; ++i) {
    st.bump_steps();
    const double w = i < n_subs ? itv_sub : split.last;
    corrupt.note(st.run_computation(level, w, i), i);

    const bool is_last = i == n_subs;
    if (!is_last) {
      switch (decision.inner) {
        case InnerKind::kScp: {
          // Store all replica states; no comparison, so no detection.
          // A fault during the store corrupts the stored snapshot:
          // attribute it to this sub-interval so rollback lands before.
          const unsigned op_mask = st.run_overhead(level, costs.store);
          ++st.result->checkpoints_scp;
          st.trace(TraceEventKind::kCheckpoint, costs.store, 0);
          corrupt.note(op_mask, i);
          break;
        }
        case InnerKind::kCcp: {
          // Compare the running states: sees any corruption so far.
          const unsigned op_mask = st.run_overhead(level, costs.compare);
          ++st.result->checkpoints_ccp;
          st.trace(TraceEventKind::kCheckpoint, costs.compare, 1);
          if (corrupt.corrupted()) {
            if (votable()) {
              // NMR: the healthy majority repairs the deviant minority;
              // execution continues with no work lost.  A fault during
              // the compare/repair corrupts the *following* window.
              vote_correct(op_mask, i + 1);
              voted_this_interval = true;
              break;
            }
            // No majority: roll back to the interval-start CSCP.
            st.trace(TraceEventKind::kDetection);
            const unsigned rollback_mask =
                st.run_overhead(level, costs.rollback);
            ++st.result->detections;
            ++st.result->rollbacks;
            --st.remaining_faults;
            st.trace(TraceEventKind::kRollback,
                     static_cast<double>(i) * itv_sub * f,
                     st.result->detections);
            // Faults during the compare or restore slip past and
            // corrupt the next attempt.
            st.carry_mask = op_mask | rollback_mask;
            return AttemptOutcome::kFaultDetected;
          }
          // Clean comparison; a fault during the compare corrupts the
          // following execution (seen at the next comparison).
          corrupt.note(op_mask, i + 1);
          break;
        }
        case InnerKind::kNone:
          break;  // unreachable: n_subs == 1 when inner is none
      }
    }
  }

  // Interval-end CSCP: one atomic compare-and-store operation costing
  // t_cp + t_s whether or not the comparison agrees (the paper's lumped
  // per-checkpoint cost c; its baseline results across the two cost
  // flavors confirm the full cost is paid on mismatch too).
  const unsigned cscp_mask = st.run_overhead(level, costs.cscp());
  st.trace(TraceEventKind::kCheckpoint, costs.cscp(), 2);

  if (corrupt.corrupted() && votable()) {
    // NMR: repair the deviant minority and commit the interval.
    vote_correct(cscp_mask, 1);
    st.commit(itv_outer * f, corrupt.mask);
    return AttemptOutcome::kCommittedVoted;
  }

  if (corrupt.corrupted()) {
    st.trace(TraceEventKind::kDetection);
    ++st.result->detections;
    ++st.result->rollbacks;
    --st.remaining_faults;
    const unsigned rollback_mask = st.run_overhead(level, costs.rollback);
    if (decision.inner == InnerKind::kScp) {
      // Roll back to the most recent recoverable SCP: DMR needs stored
      // states that are identical (before the first fault); NMR only a
      // healthy majority (before majority loss).  That prefix is
      // recovery-consistent, so it is committed.
      const int boundary = voting && corrupt.majority_sub > 0
                               ? corrupt.majority_sub
                               : corrupt.first_sub;
      const double committed_subs = static_cast<double>(boundary - 1);
      const double committed_cycles = committed_subs * itv_sub * f;
      st.committed += committed_cycles;
      st.trace(TraceEventKind::kRollback, itv_outer * f - committed_cycles,
               st.result->detections);
    } else {
      // CCP/None: nothing stored since the interval start.
      st.trace(TraceEventKind::kRollback, itv_outer * f,
               st.result->detections);
    }
    st.carry_mask = cscp_mask | rollback_mask;
    return AttemptOutcome::kFaultDetected;
  }

  // Agreement: the stored snapshot commits the whole interval.  A
  // fault during the operation corrupts the running state after the
  // committed snapshot; the next comparison will catch it.
  st.commit(itv_outer * f, cscp_mask);
  return voted_this_interval ? AttemptOutcome::kCommittedVoted
                             : AttemptOutcome::kCommitted;
}

/// Commits, back to back, the attempts of `plan` that no fault
/// reaches.  One peek at the next fault decides each attempt: when it
/// lies at or past the end of the attempt's last exposure window, every
/// window of execute_interval would find no fault, so the attempt is
/// straight-line arithmetic — the same additions to the clocks and the
/// meter, in the same order.  After each commit `after_commit` runs the
/// run loop's bookkeeping and returns whether the plan stands.  Returns
/// true when the run loop's own checks come next (a new plan, the work
/// done, the deadline) and false when execute_interval must run the next
/// attempt: a fault reaches it, or it would pass the step limit or
/// charge negative cycles (both of which throw there).  Untraced runs
/// with no carried corruption only.
template <class Source, class AfterCommit>
bool run_fault_free(EngineState<Source>& st, const Plan& plan,
                    AfterCommit&& after_commit) {
  // Copies: after_commit may replace the plan.
  const model::SpeedLevel level = plan.decision.speed;
  const InnerKind inner = plan.decision.inner;
  const auto& costs = st.setup->costs;
  const double f = level.frequency;
  const bool overhead_exposed = st.setup->fault_model.faults_during_overhead;
  const double op_cycles = inner == InnerKind::kScp   ? costs.store
                           : inner == InnerKind::kCcp ? costs.compare
                                                      : 0.0;
  const double op_time = op_cycles / f;
  const double cscp_cycles = costs.cscp();
  const double cscp_time = cscp_cycles / f;
  // run_overhead charges (and exposes) only positive-cost operations.
  const auto add_overhead = [&](double& exposure, double& now,
                                model::EnergyMeter::Tally& tally,
                                double cycles, double time) {
    if (cycles <= 0.0) return;
    if (overhead_exposed) exposure += time;
    now += time;
    tally.add(level, cycles);
  };

  model::EnergyMeter::Tally tally = st.result->meter.tally(f);
  bool charged = false;
  bool loop_checks_next = false;
  for (;;) {
    const Split split = plan.next_attempt(st.remaining_cycles());
    const auto n = static_cast<std::size_t>(split.count);
    if (n > st.config->max_steps - st.steps || split.last < 0.0) break;
    const double sub_cycles = split.sub * f;

    double exposure = st.exposure;
    double now = st.now;
    model::EnergyMeter::Tally next = tally;
    for (std::size_t i = 1; i < n; ++i) {
      exposure += split.sub;
      now += split.sub;
      next.add(level, sub_cycles);
      add_overhead(exposure, now, next, op_cycles, op_time);
    }
    exposure += split.last;
    now += split.last;
    next.add(level, split.last * f);
    add_overhead(exposure, now, next, cscp_cycles, cscp_time);

    int processor = 0;
    if (st.faults->next_fault_after(st.exposure, processor) < exposure) break;

    st.exposure = exposure;
    st.now = now;
    st.steps += n;
    tally = next;
    charged = true;
    if (inner == InnerKind::kScp) st.result->checkpoints_scp += split.count - 1;
    if (inner == InnerKind::kCcp) st.result->checkpoints_ccp += split.count - 1;
    st.commit(split.outer * f, 0);
    if (!after_commit() || st.now >= st.setup->task.deadline) {
      loop_checks_next = true;
      break;
    }
  }
  if (charged) st.result->meter.settle(f, tally);
  return loop_checks_next;
}

template <class Source>
RunResult run(const SimSetup& setup, ICheckpointPolicy& policy,
              Source& fault_source, const EngineConfig& config) {
  RunResult result;

  EngineState<Source> st;
  st.setup = &setup;
  st.config = &config;
  st.faults = &fault_source;
  st.result = &result;
  st.remaining_faults = setup.task.fault_tolerance;

  ExecContext ctx;
  ctx.task = &setup.task;
  ctx.costs = &setup.costs;
  ctx.processor = &setup.processor;
  // Policies see the environment's long-run effective rate: exact for
  // exponential arrivals (multiplier 1 leaves the rate bit-identical),
  // the documented approximation otherwise.
  ctx.lambda = setup.fault_model.rate * setup.environment.rate_multiplier();
  ctx.redundancy = setup.fault_model.processors;

  auto refresh_ctx = [&] {
    ctx.remaining_cycles = st.remaining_cycles();
    ctx.now = st.now;
    ctx.exposure = st.exposure;
    ctx.remaining_faults = st.remaining_faults;
    ctx.faults_detected = result.detections + result.corrections;
  };

  refresh_ctx();
  Plan plan(policy.initial(ctx));
  const Decision& decision = plan.decision;

  const double work_eps = setup.task.cycles * 1e-12;

  // Bookkeeping after every attempt: hand the policy the new state and
  // take its next plan (Fig. 3/6/7 "else" branch after a fault; an
  // optional replacement after a clean commit).  A voted commit lost
  // nothing but spent fault budget, so it re-plans too.  Returns true
  // while the current plan stands.
  const auto after_attempt = [&](AttemptOutcome outcome) {
    refresh_ctx();
    if (st.remaining_cycles() <= work_eps) {
      return false;  // done — the loop top records the outcome
    }
    if (outcome == AttemptOutcome::kFaultDetected ||
        outcome == AttemptOutcome::kCommittedVoted) {
      plan = Plan(policy.on_fault(ctx));
      return false;
    }
    if (auto replacement = policy.on_commit(ctx)) {
      plan = Plan(*replacement);
      return false;
    }
    return true;
  };

  for (;;) {
    if (st.remaining_cycles() <= work_eps) {
      result.outcome = st.now <= setup.task.deadline
                           ? RunOutcome::kCompleted
                           : RunOutcome::kDeadlineMiss;
      result.finish_time = st.now;
      st.trace(result.completed() ? TraceEventKind::kComplete
                                  : TraceEventKind::kDeadlineMiss,
               st.committed);
      break;
    }
    if (decision.abort) {
      result.outcome = RunOutcome::kAborted;
      result.finish_time = st.now;
      st.trace(TraceEventKind::kAbort);
      break;
    }
    if (st.now >= setup.task.deadline) {
      result.outcome = RunOutcome::kDeadlineMiss;
      result.finish_time = setup.task.deadline;
      st.trace(TraceEventKind::kDeadlineMiss, st.committed);
      break;
    }

    if (decision.speed.frequency != st.last_frequency) {
      if (st.last_frequency != 0.0) {
        ++result.speed_switches;
        st.trace(TraceEventKind::kSpeedChange, decision.speed.frequency);
      }
      st.last_frequency = decision.speed.frequency;
    }

    // A trace records every window, so traced runs take the general
    // path throughout; so does an attempt that inherits corruption.
    if (!config.record_trace && st.carry_mask == 0 &&
        run_fault_free(st, plan, [&] {
          return after_attempt(AttemptOutcome::kCommitted);
        })) {
      continue;
    }
    after_attempt(execute_interval(st, plan));
  }

  result.energy = result.meter.total();
  result.cycles_executed = result.meter.total_cycles();
  result.cycles_committed = st.committed;
  return result;
}

}  // namespace

void SimSetup::validate() const {
  task.validate();
  costs.validate();
  if (!fault_model.valid()) {
    throw std::invalid_argument(
        "SimSetup: fault model needs rate >= 0 and 2..32 processors");
  }
  environment.validate();
}

RunResult simulate(const SimSetup& setup, ICheckpointPolicy& policy,
                   model::FaultSource& fault_source,
                   const EngineConfig& config) {
  setup.validate();
  return run(setup, policy, fault_source, config);
}

RunResult simulate_seeded(const SimSetup& setup, ICheckpointPolicy& policy,
                          std::uint64_t seed, const EngineConfig& config) {
  setup.validate();
  return simulate_seeded_unchecked(setup, policy, seed, config);
}

RunResult simulate_seeded_unchecked(const SimSetup& setup,
                                    ICheckpointPolicy& policy,
                                    std::uint64_t seed,
                                    const EngineConfig& config) {
  // Stack-constructed sources keep the per-run hot path allocation-free
  // (the same three-way dispatch as model::make_fault_source).
  util::Xoshiro256 rng(seed);
  const auto& env = setup.environment;
  if (env.plain_exponential()) {
    model::PoissonFaultSource source(setup.fault_model, rng);
    return run(setup, policy, source, config);
  }
  if (env.burst.enabled) {
    model::MmppFaultSource source(setup.fault_model, env, rng);
    return run(setup, policy, source, config);
  }
  model::RenewalFaultSource source(setup.fault_model, env, rng);
  return run(setup, policy, source, config);
}

}  // namespace adacheck::sim
