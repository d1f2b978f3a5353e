//! Job morphing (paper §4.2): semantics-preserving reconfiguration.
//!
//! When the spot market grants or preempts VMs, the morph controller
//! re-plans the job for the new GPU count — keeping `M_total` and every
//! hyper-parameter fixed, absorbing the change through the
//! pipeline-depth × data-parallel shape and gradient accumulation — and
//! prices the transition (resume from the latest checkpoint plus lost
//! work).

use serde::{Deserialize, Serialize};

use crate::calibrate::Calibration;
use crate::checkpoint::CheckpointPolicy;
use crate::error::VarunaError;
use crate::oracle::Oracle;
use crate::planner::{Config, FallbackLevel, Planner};
use crate::plansearch::{PlanBudget, PlanMetrics};

/// Exponential backoff between morph-retry attempts while planning keeps
/// failing (e.g. capacity below the minimum memory-feasible fit). The
/// delay doubles per consecutive failure and caps; a success resets it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MorphBackoff {
    /// Delay before the first retry, seconds.
    pub initial_seconds: f64,
    /// Multiplier applied per consecutive failure.
    pub multiplier: f64,
    /// Ceiling on the delay, seconds.
    pub max_seconds: f64,
    attempts: u32,
}

impl MorphBackoff {
    /// Default tuning: 30 s initial, doubling, capped at 15 minutes.
    pub fn default_tuning() -> Self {
        MorphBackoff {
            initial_seconds: 30.0,
            multiplier: 2.0,
            max_seconds: 900.0,
            attempts: 0,
        }
    }

    /// A backoff with explicit tuning.
    ///
    /// # Errors
    ///
    /// Rejects non-positive/non-finite delays and a multiplier below 1.
    pub fn new(
        initial_seconds: f64,
        multiplier: f64,
        max_seconds: f64,
    ) -> Result<Self, VarunaError> {
        if !(initial_seconds > 0.0 && initial_seconds.is_finite()) {
            return Err(VarunaError::InvalidConfig(format!(
                "backoff initial delay must be positive and finite, got {initial_seconds}"
            )));
        }
        if !(multiplier >= 1.0 && multiplier.is_finite()) {
            return Err(VarunaError::InvalidConfig(format!(
                "backoff multiplier must be >= 1 and finite, got {multiplier}"
            )));
        }
        if !(max_seconds >= initial_seconds && max_seconds.is_finite()) {
            return Err(VarunaError::InvalidConfig(format!(
                "backoff cap must be >= initial delay and finite, got {max_seconds}"
            )));
        }
        Ok(MorphBackoff {
            initial_seconds,
            multiplier,
            max_seconds,
            attempts: 0,
        })
    }

    /// Consecutive failures recorded since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Records a failure and returns the delay to wait before retrying.
    pub fn next_delay(&mut self) -> f64 {
        let delay = (self.initial_seconds * self.multiplier.powi(self.attempts as i32))
            .min(self.max_seconds);
        self.attempts = self.attempts.saturating_add(1);
        delay
    }

    /// Clears the failure streak after a successful plan.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// Restores the consecutive-failure streak to the value a logged
    /// retry reported — WAL recovery replays a `MorphRetry` record by
    /// setting the streak where the live run left it, so the *next*
    /// live failure computes the same delay the uninterrupted run would.
    pub fn restore_attempts(&mut self, attempts: u32) {
        self.attempts = attempts;
    }
}

/// A morphing decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MorphDecision {
    /// The configuration to run next.
    pub config: Config,
    /// Whether the shape actually changed (a same-shape decision is a
    /// replacement of a preempted VM, marked `p` in the paper's Figure 8).
    pub reconfigured: bool,
    /// Estimated seconds of downtime for the transition.
    pub downtime: f64,
    /// Fixed restart overhead this transition pays (process restart,
    /// NCCL re-setup, resume), seconds. Zero when the transition is a
    /// live stage migration instead of a restart.
    pub restart_seconds: f64,
    /// Seconds spent streaming one stage's state to a replacement VM
    /// while the rest of the pipeline drains in place. Non-zero only for
    /// a same-shape replacement under live migration, and exclusive with
    /// [`MorphDecision::restart_seconds`].
    pub migration_seconds: f64,
    /// How far down the planner's recovery ladder this plan sits
    /// ([`FallbackLevel::None`] unless fallback is enabled and needed).
    pub fallback: FallbackLevel,
}

/// Tracks the running configuration and re-plans on resource changes.
#[derive(Debug, Clone)]
pub struct MorphController<'a> {
    calib: &'a Calibration,
    m_total: usize,
    micro_override: Option<usize>,
    checkpoint: CheckpointPolicy,
    /// Fixed per-morph overhead: process restart, NCCL re-setup, resume.
    pub restart_overhead: f64,
    /// When set, same-shape replacements stream the affected stage's
    /// state to the replacement VM at this bandwidth (bytes/s) while the
    /// pipeline drains in place, instead of restarting every process.
    migration_bandwidth: Option<f64>,
    /// Whether planning failures walk the planner's recovery ladder
    /// (reduced micro-batch, then offload) before giving up.
    fallback: bool,
    current: Option<Config>,
    /// Plans are pure functions of the GPU count (m* and the calibration
    /// are fixed), so repeats of a capacity level reuse the cached plan —
    /// the same reuse the paper applies to `m*` across morphing decisions.
    /// Invalidated whenever the micro-batch override changes.
    plan_cache: std::collections::HashMap<usize, (Config, FallbackLevel)>,
    cache_hits: u64,
    cache_misses: u64,
    /// Where best-configuration decisions come from. Only the analytic
    /// path feeds the outer capacity-keyed `plan_cache`; the simulated
    /// path re-ranks every morph (its memo table provides the reuse) so
    /// per-event plan metrics stay honest.
    oracle: Oracle,
    last_plan: Option<PlanMetrics>,
}

impl<'a> MorphController<'a> {
    /// A controller with the given batch-size contract.
    pub fn new(calib: &'a Calibration, m_total: usize) -> Self {
        MorphController {
            calib,
            m_total,
            micro_override: None,
            checkpoint: CheckpointPolicy::default_tuning(),
            restart_overhead: 60.0,
            migration_bandwidth: None,
            fallback: false,
            current: None,
            plan_cache: std::collections::HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            oracle: Oracle::Analytic,
            last_plan: None,
        }
    }

    /// The calibration this controller plans against.
    pub fn calibration(&self) -> &'a Calibration {
        self.calib
    }

    /// Pins the micro-batch size (otherwise `m*` from calibration).
    pub fn micro_batch(mut self, m: usize) -> Self {
        self.set_micro_batch(Some(m));
        self
    }

    /// Enables the planner's recovery ladder on planning failure.
    pub fn with_fallback(mut self) -> Self {
        self.fallback = true;
        self.plan_cache.clear();
        self
    }

    /// Default stage-streaming bandwidth for live migration, bytes/s —
    /// a conservative intra-datacenter 5 GB/s.
    pub const DEFAULT_MIGRATION_BANDWIDTH: f64 = 5.0e9;

    /// Enables live stage migration: a same-shape replacement streams
    /// the affected stage's state (`total_params * 16 / p` bytes) to the
    /// replacement VM at `bandwidth` bytes/s while the rest of the
    /// pipeline drains in place — no restart, no lost work. Shape
    /// changes still restart.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive or non-finite bandwidth.
    pub fn with_live_migration(mut self, bandwidth: f64) -> Result<Self, VarunaError> {
        if !(bandwidth > 0.0 && bandwidth.is_finite()) {
            return Err(VarunaError::InvalidConfig(format!(
                "migration bandwidth must be positive and finite, got {bandwidth}"
            )));
        }
        self.migration_bandwidth = Some(bandwidth);
        Ok(self)
    }

    /// Whether live stage migration is enabled.
    pub fn live_migration_enabled(&self) -> bool {
        self.migration_bandwidth.is_some()
    }

    /// Seconds to stream one stage's state at depth `p` under the
    /// configured migration bandwidth (zero when migration is off).
    pub fn migration_seconds(&self, p: usize) -> f64 {
        match self.migration_bandwidth {
            Some(bw) => {
                let stage_bytes =
                    self.calib.model.total_params().saturating_mul(16) / p.max(1) as u64;
                stage_bytes as f64 / bw
            }
            None => 0.0,
        }
    }

    /// Enables simulator-in-the-loop re-planning under `budget`: every
    /// morph scores its candidates on the discrete-event emulator, with
    /// memoized reuse across morph events and analytic fallback once the
    /// budget is exhausted. Shorthand for
    /// [`MorphController::with_oracle`]`(Oracle::sim(budget))`.
    pub fn with_sim_planner(self, budget: PlanBudget) -> Self {
        self.with_oracle(Oracle::sim(budget))
    }

    /// Replaces the plan oracle. Cached plans were computed by the
    /// previous oracle and are discarded.
    pub fn with_oracle(mut self, oracle: Oracle) -> Self {
        self.oracle = oracle;
        self.plan_cache.clear();
        self
    }

    /// The active plan oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Whether simulator-in-the-loop re-planning is enabled.
    pub fn sim_enabled(&self) -> bool {
        self.oracle.is_sim()
    }

    /// Metrics of the most recent planning event on the simulator path
    /// (cleared by the take), `None` on the analytic path.
    pub fn take_last_plan_metrics(&mut self) -> Option<PlanMetrics> {
        self.last_plan.take()
    }

    /// Changes (or clears) the micro-batch override in place. Cached plans
    /// were computed for the previous micro-batch and are discarded — a
    /// stale hit here would silently run the wrong configuration.
    pub fn set_micro_batch(&mut self, m: Option<usize>) {
        if self.micro_override != m {
            self.micro_override = m;
            self.plan_cache.clear();
        }
    }

    /// The active configuration, if any.
    pub fn current(&self) -> Option<&Config> {
        self.current.as_ref()
    }

    /// Drops the active configuration (the job is paused, e.g. while the
    /// manager sits in its degraded state with no feasible capacity).
    /// Cached plans survive — they are still valid for future capacity.
    pub fn suspend(&mut self) {
        self.current = None;
    }

    /// Plan-cache hits since construction.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Plan-cache misses (fresh planner invocations) since construction.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    fn plan(&mut self, gpus: usize) -> Result<(Config, FallbackLevel), VarunaError> {
        let cacheable = !self.oracle.is_sim();
        if cacheable {
            if let Some(cached) = self.plan_cache.get(&gpus) {
                self.cache_hits += 1;
                return Ok(cached.clone());
            }
        }
        let mut planner = Planner::new(&self.calib.model, self.calib).batch_size(self.m_total);
        if let Some(m) = self.micro_override {
            planner = planner.micro_batch(m);
        }
        let (config, level, metrics) = self.oracle.plan(&planner, gpus, self.fallback)?;
        self.last_plan = metrics;
        let planned = (config, level);
        if cacheable {
            self.cache_misses += 1;
            self.plan_cache.insert(gpus, planned.clone());
        }
        Ok(planned)
    }

    /// Reinstates a previously committed morph decision without
    /// re-planning — the WAL recovery path. The decision's configuration
    /// becomes current, and on the analytic oracle the
    /// capacity-keyed plan cache is fed exactly as the live plan would
    /// have fed it, so cache counters and later live plans match the
    /// uninterrupted run.
    pub fn restore_plan(&mut self, gpus: usize, decision: &MorphDecision) {
        if !self.oracle.is_sim() {
            if self.plan_cache.contains_key(&gpus) {
                self.cache_hits += 1;
            } else {
                self.cache_misses += 1;
                self.plan_cache
                    .insert(gpus, (decision.config.clone(), decision.fallback));
            }
        }
        self.current = Some(decision.config.clone());
    }

    /// Re-plans for `gpus` available GPUs at training `step`.
    ///
    /// # Errors
    ///
    /// Propagates planning failure when no configuration fits.
    pub fn on_resources_changed(
        &mut self,
        gpus: usize,
        step: u64,
    ) -> Result<MorphDecision, VarunaError> {
        let durable = step - self.checkpoint.lost_minibatches(step);
        self.on_resources_changed_from(gpus, step, durable)
    }

    /// Like [`MorphController::on_resources_changed`], but prices lost
    /// work against an explicit durable checkpoint step rather than the
    /// periodic schedule — the form the recovery machine uses when
    /// checkpoint writes have failed or a checkpoint proved corrupt, so
    /// the true durable point is older (or, after a proactive
    /// eviction-notice checkpoint, newer) than the schedule implies.
    ///
    /// # Errors
    ///
    /// Propagates planning failure when no configuration fits.
    pub fn on_resources_changed_from(
        &mut self,
        gpus: usize,
        step: u64,
        durable_step: u64,
    ) -> Result<MorphDecision, VarunaError> {
        let (config, fallback) = self.plan(gpus)?;
        let reconfigured = match &self.current {
            Some(c) => c.p != config.p || c.d != config.d,
            None => true,
        };
        // Any resource change restarts every process in the baseline
        // model: downtime is the fixed restart plus re-run of work lost
        // since the durable checkpoint. With live migration enabled, a
        // same-shape replacement instead streams the affected stage's
        // state while the pipeline drains in place — nothing restarts
        // and no work is lost.
        let lost = step.saturating_sub(durable_step) as f64;
        let migrate = !reconfigured && self.migration_bandwidth.is_some();
        let (restart_seconds, migration_seconds, downtime) = if migrate {
            let m = self.migration_seconds(config.p);
            (0.0, m, m)
        } else {
            let r = self.restart_overhead;
            (r, 0.0, r + lost * config.est_minibatch_time)
        };
        self.current = Some(config.clone());
        Ok(MorphDecision {
            config,
            reconfigured,
            downtime,
            restart_seconds,
            migration_seconds,
            fallback,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarunaCluster;
    use varuna_models::ModelZoo;

    fn calib() -> Calibration {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(128))
    }

    #[test]
    fn morphing_preserves_m_total_across_shapes() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        let a = ctl.on_resources_changed(100, 0).unwrap();
        let b = ctl.on_resources_changed(36, 16).unwrap();
        assert_eq!(a.config.examples, 8192);
        assert_eq!(b.config.examples, 8192);
        assert!(b.config.gpus_used() <= 36);
        // Fewer GPUs => more gradient accumulation per replica.
        assert!(b.config.n_micro > a.config.n_micro);
    }

    #[test]
    fn unchanged_shape_is_not_a_reconfiguration() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        let first = ctl.on_resources_changed(72, 0).unwrap();
        assert!(
            first.reconfigured,
            "first plan is always a (re)configuration"
        );
        let again = ctl.on_resources_changed(72, 5).unwrap();
        assert!(!again.reconfigured, "same GPU count, same shape");
    }

    #[test]
    fn downtime_includes_lost_work_since_checkpoint() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        // Step 16 is a checkpoint boundary: nothing lost.
        let clean = ctl.on_resources_changed(64, 16).unwrap();
        let dirty = ctl.on_resources_changed(64, 23).unwrap();
        assert!(
            dirty.downtime > clean.downtime,
            "7 lost mini-batches cost time"
        );
        assert!((clean.downtime - ctl.restart_overhead).abs() < 1e-9);
    }

    #[test]
    fn shrinking_below_feasibility_errors() {
        let model = ModelZoo::gpt2_8_3b();
        let c = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(128));
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        assert!(
            ctl.on_resources_changed(4, 0).is_err(),
            "8.3B cannot fit on 4 GPUs"
        );
    }

    #[test]
    fn churn_reuses_cached_plans_per_capacity_level() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        // Grow/shrink cycles over three capacity levels: each level plans
        // once, every revisit is a cache hit with an identical config.
        let levels = [100usize, 64, 36, 100, 64, 36, 100, 64, 36, 64, 100];
        let mut first_seen: std::collections::HashMap<usize, Config> =
            std::collections::HashMap::new();
        for (i, &g) in levels.iter().enumerate() {
            let d = ctl.on_resources_changed(g, i as u64).unwrap();
            match first_seen.get(&g) {
                Some(prev) => assert_eq!(prev, &d.config, "revisit of {g} GPUs changed plan"),
                None => {
                    first_seen.insert(g, d.config.clone());
                }
            }
        }
        assert_eq!(ctl.cache_misses(), 3, "one planner run per distinct level");
        assert_eq!(ctl.cache_hits(), levels.len() as u64 - 3);
    }

    #[test]
    fn micro_batch_override_change_invalidates_cached_plans() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        let at_m4 = ctl.on_resources_changed(72, 0).unwrap();
        assert_eq!(at_m4.config.m, 4);
        ctl.set_micro_batch(Some(2));
        let at_m2 = ctl.on_resources_changed(72, 1).unwrap();
        assert_eq!(at_m2.config.m, 2, "stale m=4 plan must not be served");
        assert_eq!(ctl.cache_misses(), 2, "override change forces a re-plan");
        // Setting the same override again is a no-op: the cache survives.
        ctl.set_micro_batch(Some(2));
        let again = ctl.on_resources_changed(72, 2).unwrap();
        assert_eq!(again.config, at_m2.config);
        assert_eq!(ctl.cache_misses(), 2);
        assert_eq!(ctl.cache_hits(), 1);
    }

    #[test]
    fn suspend_clears_current_but_keeps_cache() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        ctl.on_resources_changed(64, 0).unwrap();
        assert!(ctl.current().is_some());
        ctl.suspend();
        assert!(ctl.current().is_none());
        let d = ctl.on_resources_changed(64, 1).unwrap();
        assert!(d.reconfigured, "resume after suspend is a reconfiguration");
        assert_eq!(ctl.cache_hits(), 1, "cached plan survives suspension");
    }

    #[test]
    fn fallback_controller_recovers_what_default_rejects() {
        let model = ModelZoo::gpt2_8_3b();
        let c = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(128));
        // m=8 on 24 GPUs: the forced micro-batch may not fit, but the
        // ladder walks m down until a depth fits.
        let mut strict = MorphController::new(&c, 8192).micro_batch(8);
        let mut lenient = MorphController::new(&c, 8192)
            .micro_batch(8)
            .with_fallback();
        match strict.on_resources_changed(24, 0) {
            Err(_) => {
                let d = lenient.on_resources_changed(24, 0).unwrap();
                assert!(d.fallback != FallbackLevel::None);
            }
            Ok(d) => {
                // If m=8 happens to fit, fallback must agree with strict.
                let l = lenient.on_resources_changed(24, 0).unwrap();
                assert_eq!(l.config, d.config);
                assert_eq!(l.fallback, FallbackLevel::None);
            }
        }
    }

    #[test]
    fn sim_planner_memoizes_across_morph_events() {
        let c = Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(32));
        let mut ctl = MorphController::new(&c, 768)
            .micro_batch(4)
            .with_sim_planner(PlanBudget::unlimited());
        assert!(ctl.sim_enabled());
        let cold = ctl.on_resources_changed(24, 0).unwrap();
        let m1 = ctl.take_last_plan_metrics().unwrap();
        assert!(m1.simulated > 0, "first morph must emulate candidates");
        assert_eq!(m1.memo_hits, 0);
        let warm = ctl.on_resources_changed(24, 5).unwrap();
        let m2 = ctl.take_last_plan_metrics().unwrap();
        assert_eq!(m2.memo_hits, m2.candidates, "repeat morph is all memo hits");
        assert_eq!(m2.simulated, 0);
        assert!(m2.cache_hit_rate() > 0.0);
        assert_eq!(cold.config, warm.config, "memoized plan is identical");
        assert!(!warm.reconfigured, "same capacity keeps the shape");
    }

    #[test]
    fn sim_planner_respects_capacity_and_batch_contract() {
        let c = Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(32));
        let mut ctl = MorphController::new(&c, 768)
            .micro_batch(4)
            .with_sim_planner(PlanBudget::default_tuning());
        for (i, &g) in [24usize, 12, 20].iter().enumerate() {
            let d = ctl.on_resources_changed(g, i as u64).unwrap();
            assert!(d.config.gpus_used() <= g);
            assert_eq!(d.config.examples, 768, "M_total preserved");
        }
    }

    #[test]
    fn analytic_path_has_no_plan_metrics() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        assert!(!ctl.sim_enabled());
        ctl.on_resources_changed(64, 0).unwrap();
        assert!(ctl.take_last_plan_metrics().is_none());
    }

    #[test]
    fn backoff_doubles_caps_and_resets() {
        let mut b = MorphBackoff::new(30.0, 2.0, 200.0).unwrap();
        assert_eq!(b.next_delay(), 30.0);
        assert_eq!(b.next_delay(), 60.0);
        assert_eq!(b.next_delay(), 120.0);
        assert_eq!(b.next_delay(), 200.0, "capped");
        assert_eq!(b.next_delay(), 200.0, "stays capped");
        assert_eq!(b.attempts(), 5);
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert_eq!(b.next_delay(), 30.0);
    }

    #[test]
    fn invalid_backoff_tunings_are_typed_errors() {
        assert!(MorphBackoff::new(0.0, 2.0, 100.0).is_err());
        assert!(MorphBackoff::new(30.0, 0.5, 100.0).is_err());
        assert!(MorphBackoff::new(30.0, 2.0, 10.0).is_err());
        assert!(MorphBackoff::new(f64::NAN, 2.0, 100.0).is_err());
    }

    #[test]
    fn downtime_prices_lost_work_from_the_durable_step() {
        let c = calib();
        let mut ctl = MorphController::new(&c, 8192).micro_batch(4);
        // Schedule says durable = 16 at step 20; but if writes failed and
        // the durable point is still 0, 20 minibatches are at risk.
        let scheduled = ctl.on_resources_changed(64, 20).unwrap();
        let stale = ctl.on_resources_changed_from(64, 20, 0).unwrap();
        assert!(stale.downtime > scheduled.downtime);
        let expected = ctl.restart_overhead + 20.0 * stale.config.est_minibatch_time;
        assert!((stale.downtime - expected).abs() < 1e-9);
    }

    #[test]
    fn replacements_restart_in_the_baseline_and_migrate_under_zero_downtime() {
        let c = calib();
        let mut base = MorphController::new(&c, 8192).micro_batch(4);
        let mut live = MorphController::new(&c, 8192)
            .micro_batch(4)
            .with_live_migration(MorphController::DEFAULT_MIGRATION_BANDWIDTH)
            .unwrap();
        assert!(live.live_migration_enabled());
        let b0 = base.on_resources_changed(72, 0).unwrap();
        let l0 = live.on_resources_changed(72, 0).unwrap();
        // The first plan is a reconfiguration in both modes: full restart.
        assert!(b0.reconfigured && l0.reconfigured);
        assert_eq!(b0.restart_seconds, base.restart_overhead);
        assert_eq!(l0.restart_seconds, live.restart_overhead);
        assert_eq!(l0.migration_seconds, 0.0);
        // A same-shape replacement: the baseline restarts (and pays lost
        // work), zero-downtime streams one stage instead.
        let b1 = base.on_resources_changed(72, 5).unwrap();
        let l1 = live.on_resources_changed(72, 5).unwrap();
        assert!(!b1.reconfigured && !l1.reconfigured);
        assert_eq!(b1.restart_seconds, base.restart_overhead);
        assert_eq!(b1.migration_seconds, 0.0);
        let expected_base = base.restart_overhead + 5.0 * b1.config.est_minibatch_time;
        assert!((b1.downtime - expected_base).abs() < 1e-9);
        assert_eq!(l1.restart_seconds, 0.0);
        assert!(l1.migration_seconds > 0.0);
        assert!((l1.migration_seconds - live.migration_seconds(l1.config.p)).abs() < 1e-12);
        assert!((l1.downtime - l1.migration_seconds).abs() < 1e-12);
        assert!(
            l1.downtime < b1.downtime,
            "streaming one stage must beat a full restart"
        );
    }

    #[test]
    fn migration_bandwidth_is_validated() {
        let c = calib();
        assert!(MorphController::new(&c, 8192)
            .with_live_migration(0.0)
            .is_err());
        assert!(MorphController::new(&c, 8192)
            .with_live_migration(f64::NAN)
            .is_err());
        assert!(MorphController::new(&c, 8192)
            .with_live_migration(-5.0e9)
            .is_err());
    }
}
