// The adaptive checkpointing schemes: the paper's contribution and the
// DATE'03 baseline it extends.
//
// One configurable implementation covers all five pseudocode variants:
//
//   scheme            figure   DVS   inner checkpoints
//   ADT_DVS (A_D)     [3]      yes   none
//   adapchp-SCP       Fig. 3   no    SCPs
//   adapchp-CCP       §2.2     no    CCPs
//   adapchp_dvs_SCP   Fig. 6   yes   SCPs   <- "A_D_S"
//   adapchp_dvs_CCP   Fig. 7   yes   CCPs   <- "A_D_C"
//
// Decision recipe (the figures' lines 1-4 / 13-17):
//   1. speed: with DVS, the slowest level whose fault-aware estimate
//      t_est fits the remaining deadline, else the fastest (Fig. 6
//      line 2/15); without DVS, a fixed level.
//   2. abort when remaining work at the chosen speed cannot fit the
//      remaining deadline (Fig. 6 line 6).
//   3. outer interval Itv from procedure interval() (Fig. 4), clamped
//      to the remaining work.
//   4. inner count m from num_SCP/num_CCP (Fig. 2) on the renewal
//      model, sub-interval itv = Itv/m.
// Recomputed at start and after every detected fault; optionally also
// at every committed CSCP (ablation knob, off in the paper).
#pragma once

#include <cstddef>
#include <string>

#include "model/checkpoint.hpp"
#include "sim/policy.hpp"

namespace adacheck::policy {

struct AdaptiveConfig {
  sim::InnerKind inner = sim::InnerKind::kNone;
  bool use_dvs = true;          ///< false: pin to `fixed_level`
  std::size_t fixed_level = 0;  ///< used when use_dvs is false
  bool recompute_at_commit = false;  ///< ablation: also re-plan per CSCP
  /// Cap on the inner count so degenerate renewal minima cannot flood
  /// an interval with checkpoints (paper's optimum is small anyway).
  int max_inner = 4096;
  /// Online inter-fault-gap rate tracking: instead of trusting the
  /// environment's nominal lambda for the whole run, blend it with the
  /// realized detection rate via a Gamma-posterior mean
  ///   lambda_hat = (k0 + detections) / (k0 / lambda0 + exposure)
  /// (k0 = estimator_prior_strength pseudo-faults at the nominal
  /// rate; exposure is the vulnerable-time clock lambda is defined
  /// on).  Early in a run lambda_hat ~ lambda0; as observed gaps
  /// accumulate the estimate follows the realized rate, which is what
  /// lets the adaptive rule track bursty / non-Poisson environments.
  /// Off by default: the paper's schemes (and their bit-identical
  /// statistics) trust the nominal rate.
  bool estimate_rate = false;
  double estimator_prior_strength = 4.0;  ///< k0, in pseudo-faults
};

class AdaptiveCheckpointPolicy final : public sim::ICheckpointPolicy {
 public:
  explicit AdaptiveCheckpointPolicy(AdaptiveConfig config);

  std::string name() const override { return name_; }
  /// All per-run state lives in the ExecContext; instances are reusable.
  /// The inner-solve memo caches a pure function, so it stays warm.
  bool reset() override { return true; }
  sim::Decision initial(const sim::ExecContext& ctx) override;
  sim::Decision on_fault(const sim::ExecContext& ctx) override;
  std::optional<sim::Decision> on_commit(const sim::ExecContext& ctx) override;

  const AdaptiveConfig& config() const noexcept { return config_; }

  /// Factory helpers with the paper's scheme names.
  static AdaptiveConfig adt_dvs();          ///< A_D (DATE'03 baseline)
  static AdaptiveConfig adapchp_scp();      ///< Fig. 3, fixed speed
  static AdaptiveConfig adapchp_ccp();      ///< §2.2, fixed speed
  static AdaptiveConfig adapchp_dvs_scp();  ///< A_D_S (Fig. 6)
  static AdaptiveConfig adapchp_dvs_ccp();  ///< A_D_C (Fig. 7)
  /// Rate-tracking variant of any config ("-est" scheme-name suffix).
  static AdaptiveConfig with_estimator(AdaptiveConfig config);

  /// The rate the policy plans with: ctx.lambda, or the Gamma-posterior
  /// blend of nominal rate and observed detections when estimate_rate
  /// is set (exposed for tests).
  double planning_lambda(const sim::ExecContext& ctx) const;

 private:
  /// The last num_SCP/num_CCP solve: every input, compared bit for
  /// bit, and its m.  Most re-plans repeat the previous solve (the
  /// interval rule is constant within a cell until the budget runs
  /// low), so one entry catches them.
  struct SolveMemo {
    bool valid = false;
    bool tmr = false;
    double interval = 0.0;
    double lambda = 0.0;
    model::CheckpointCosts time_costs;
    int m = 1;

    bool hit(double interval_, double lambda_,
             const model::CheckpointCosts& costs_, bool tmr_) const noexcept;
  };

  sim::Decision decide(const sim::ExecContext& ctx);
  /// Inner count m for interval `itv`, from the memo or a fresh solve.
  int inner_count(double itv, double lambda,
                  const model::CheckpointCosts& time_costs, bool tmr);

  AdaptiveConfig config_;
  std::string name_;
  SolveMemo memo_;
};

}  // namespace adacheck::policy
