//! Job morphing (paper §4.2): semantics-preserving reconfiguration.
//!
//! When the spot market grants or preempts VMs, the morph controller
//! re-plans the job for the new GPU count — keeping `M_total` and every
//! hyper-parameter fixed, absorbing the change through the
//! pipeline-depth × data-parallel shape and gradient accumulation — and
//! prices the transition (resume from the latest checkpoint plus lost
//! work).

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::calibrate::Calibration;
use crate::checkpoint::CheckpointPolicy;
use crate::error::VarunaError;
use crate::oracle::Oracle;
use crate::planner::{Config, FallbackLevel, Planner};
use crate::plansearch::{search_fingerprint, PlanBudget, PlanMetrics};

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

/// Every input an analytic plan depends on. Calibration is
/// scale-invariant (paper §4.3), so a plan is a pure function of these
/// five values: controllers with equal keys plan the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    /// [`search_fingerprint`] of the calibration (model included).
    calibration: u64,
    m_total: usize,
    micro_override: Option<usize>,
    fallback: bool,
    gpus: usize,
}

/// Analytic plans by every input they depend on. A handle: clones share
/// one table. A controller starts with a private one; a fleet hands one
/// handle to all its jobs, so a capacity level one job planned is a hit
/// for every job with the same calibration and batch contract.
#[derive(Debug, Clone, Default)]
pub struct PlanCache(Rc<RefCell<HashMap<PlanKey, (Config, FallbackLevel)>>>);

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.borrow().len()
    }

    fn get(&self, key: &PlanKey) -> Option<(Config, FallbackLevel)> {
        self.0.borrow().get(key).cloned()
    }

    fn contains(&self, key: &PlanKey) -> bool {
        self.0.borrow().contains_key(key)
    }

    fn insert(&self, key: PlanKey, planned: (Config, FallbackLevel)) {
        self.0.borrow_mut().insert(key, planned);
    }
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
    /// [`search_fingerprint`] of `calib`, computed once, on the first
    /// analytic plan or restore: the simulated path never needs it, and
    /// it costs more than building the rest of the controller.
    fingerprint: OnceCell<u64>,
    /// Analytic plans keyed by every input they depend on, so repeats of
    /// a capacity level reuse the cached plan — the same reuse the paper
    /// applies to `m*` across morphing decisions — and no setting needs
    /// to invalidate it. Shared with clones of this controller and with
    /// any controller handed the same [`PlanCache`].
    plan_cache: PlanCache,
    cache_hits: u64,
    cache_misses: u64,
    /// Where best-configuration decisions come from. Only the analytic
    /// path reads or feeds `plan_cache`; the simulated path re-ranks
    /// every morph (its memo table provides the reuse) so per-event plan
    /// metrics stay honest.
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
            fingerprint: OnceCell::new(),
            plan_cache: PlanCache::new(),
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
        self
    }

    /// Plans through `cache` instead of a private one: every controller
    /// holding a clone of it serves each other's analytic plans.
    pub fn with_plan_cache(mut self, cache: PlanCache) -> Self {
        self.plan_cache = cache;
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

    /// Replaces the plan oracle.
    pub fn with_oracle(mut self, oracle: Oracle) -> Self {
        self.oracle = oracle;
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

    /// Changes (or clears) the micro-batch override in place.
    pub fn set_micro_batch(&mut self, m: Option<usize>) {
        self.micro_override = m;
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

    fn key(&self, gpus: usize) -> PlanKey {
        PlanKey {
            calibration: *self
                .fingerprint
                .get_or_init(|| search_fingerprint(self.calib)),
            m_total: self.m_total,
            micro_override: self.micro_override,
            fallback: self.fallback,
            gpus,
        }
    }

    fn plan(&mut self, gpus: usize) -> Result<(Config, FallbackLevel), VarunaError> {
        let cacheable = !self.oracle.is_sim();
        if cacheable {
            if let Some(cached) = self.plan_cache.get(&self.key(gpus)) {
                self.cache_hits += 1;
                return Ok(cached);
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
            self.plan_cache.insert(self.key(gpus), planned.clone());
        }
        Ok(planned)
    }

    /// Reinstates a previously committed morph decision without
    /// re-planning — the WAL recovery path. The decision's configuration
    /// becomes current, and on the analytic oracle the plan cache is fed
    /// exactly as the live plan would have fed it, so cache counters and
    /// later live plans match the uninterrupted run.
    pub fn restore_plan(&mut self, gpus: usize, decision: &MorphDecision) {
        if !self.oracle.is_sim() {
            let key = self.key(gpus);
            if self.plan_cache.contains(&key) {
                self.cache_hits += 1;
            } else {
                self.cache_misses += 1;
                self.plan_cache
                    .insert(key, (decision.config.clone(), decision.fallback));
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
    fn micro_batch_override_is_part_of_the_plan_key() {
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
        // Going back to m=4 finds the m=4 plan still cached.
        ctl.set_micro_batch(Some(4));
        let back = ctl.on_resources_changed(72, 3).unwrap();
        assert_eq!(back.config, at_m4.config);
        assert_eq!(ctl.cache_misses(), 2);
        assert_eq!(ctl.cache_hits(), 2);
    }

    /// Every decision (or error) a controller makes over `levels`.
    fn walk(ctl: &mut MorphController<'_>, levels: &[usize]) -> Vec<Result<MorphDecision, String>> {
        levels
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                ctl.on_resources_changed(g, i as u64)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    #[test]
    fn a_shared_cache_plans_what_private_caches_plan() {
        let gpt = calib();
        let bert =
            Calibration::profile(&ModelZoo::bert_large(), &VarunaCluster::commodity_1gpu(128));
        // Controllers that differ in calibration, m_total, micro-batch or
        // fallback: none may be served another's plan.
        let variants = |cache: Option<&PlanCache>| {
            let ctls = vec![
                MorphController::new(&gpt, 8192).micro_batch(4),
                MorphController::new(&bert, 8192).micro_batch(4),
                MorphController::new(&gpt, 4096).micro_batch(4),
                MorphController::new(&gpt, 8192).micro_batch(2),
                MorphController::new(&gpt, 8192)
                    .micro_batch(4)
                    .with_fallback(),
                MorphController::new(&gpt, 8192),
            ];
            ctls.into_iter()
                .map(|ctl| match cache {
                    Some(cache) => ctl.with_plan_cache(cache.clone()),
                    None => ctl,
                })
                .collect::<Vec<_>>()
        };
        let cache = PlanCache::new();
        let mut shared = variants(Some(&cache));
        let mut private = variants(None);
        let levels = [100usize, 36, 2, 64, 100, 36];
        let mut distinct = 0;
        for (s, p) in shared.iter_mut().zip(private.iter_mut()) {
            let got = walk(s, &levels);
            let want = walk(p, &levels);
            assert_eq!(got, want);
            for (g, w) in got.iter().zip(&want) {
                if let (Ok(g), Ok(w)) = (g, w) {
                    assert_eq!(
                        g.config.est_minibatch_time.to_bits(),
                        w.config.est_minibatch_time.to_bits()
                    );
                }
            }
            assert_eq!(s.cache_misses(), p.cache_misses());
            assert_eq!(s.cache_hits(), p.cache_hits());
            distinct += p.cache_misses() as usize;
        }
        assert_eq!(cache.len(), distinct, "one entry per controller and level");
    }

    #[test]
    fn identical_controllers_plan_each_level_once() {
        let c = calib();
        let cache = PlanCache::new();
        let mut a = MorphController::new(&c, 8192)
            .micro_batch(4)
            .with_plan_cache(cache.clone());
        let mut b = MorphController::new(&c, 8192)
            .micro_batch(4)
            .with_plan_cache(cache.clone());
        let levels = [100usize, 64, 36, 64, 100];
        let first = walk(&mut a, &levels);
        let second = walk(&mut b, &levels);
        assert_eq!(first, second);
        assert_eq!(a.cache_misses(), 3, "one planner run per distinct level");
        assert_eq!(b.cache_misses(), 0, "every level was planned by the first");
        assert_eq!(b.cache_hits(), levels.len() as u64);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn every_plan_input_changes_the_key() {
        let base = calib();
        let mut calibs: Vec<(&str, Calibration)> = Vec::new();
        let mut perturb = |what: &'static str, f: &dyn Fn(&mut Calibration)| {
            let mut c = base.clone();
            f(&mut c);
            calibs.push((what, c));
        };
        perturb("model name", &|c| c.model.name.push('x'));
        perturb("model layers", &|c| c.model.layers += 1);
        perturb("model hidden", &|c| c.model.hidden += 1);
        perturb("model heads", &|c| c.model.heads += 1);
        perturb("model seq_len", &|c| c.model.seq_len += 1);
        perturb("model vocab", &|c| c.model.vocab += 1);
        perturb("model tied_embeddings", &|c| {
            c.model.tied_embeddings = !c.model.tied_embeddings
        });
        perturb("graph", &|c| c.graph.cutpoints[3].params += 1);
        perturb("ms", &|c| c.ms[0] += 1);
        perturb("fwd", &|c| c.fwd[2][1] *= 1.5);
        perturb("bwd", &|c| c.bwd[2][1] *= 1.5);
        perturb("act_intra", &|c| c.act_intra[1] *= 1.5);
        perturb("act_inter", &|c| c.act_inter[1] *= 1.5);
        perturb("inter_bw", &|c| c.inter_bw *= 1.5);
        perturb("inter_lat", &|c| c.inter_lat *= 1.5);
        perturb("ar_probe", &|c| c.ar_probe[1] *= 1.5);
        perturb("ar_contention", &|c| c.ar_contention *= 1.5);
        perturb("gpus_per_node", &|c| c.gpus_per_node += 1);
        perturb("gpu_memory", &|c| c.gpu_memory *= 1.5);
        perturb("inter_link class", &|c| {
            c.inter_link.class = varuna_net::LinkClass::InfinibandInter
        });
        perturb("inter_link bandwidth", &|c| c.inter_link.bandwidth *= 1.5);
        perturb("inter_link latency", &|c| c.inter_link.latency *= 1.5);
        perturb("inter_link jitter mean", &|c| {
            c.inter_link.jitter.mean += 1e-6
        });
        perturb("inter_link jitter sigma", &|c| {
            c.inter_link.jitter.sigma += 0.1
        });
        perturb("intra_link bandwidth", &|c| c.intra_link.bandwidth *= 1.5);
        perturb("intra_link latency", &|c| c.intra_link.latency *= 1.5);

        let key = |ctl: MorphController<'_>| ctl.key(64);
        let mut keys = vec![(
            "base",
            key(MorphController::new(&base, 8192).micro_batch(4)),
        )];
        for (what, c) in &calibs {
            keys.push((what, key(MorphController::new(c, 8192).micro_batch(4))));
        }
        keys.push((
            "m_total",
            key(MorphController::new(&base, 4096).micro_batch(4)),
        ));
        keys.push((
            "micro-batch",
            key(MorphController::new(&base, 8192).micro_batch(2)),
        ));
        keys.push(("no micro-batch", key(MorphController::new(&base, 8192))));
        keys.push((
            "fallback",
            key(MorphController::new(&base, 8192)
                .micro_batch(4)
                .with_fallback()),
        ));
        keys.push((
            "gpus",
            MorphController::new(&base, 8192).micro_batch(4).key(65),
        ));
        for (i, (a, ka)) in keys.iter().enumerate() {
            for (b, kb) in &keys[i + 1..] {
                assert_ne!(ka, kb, "{a} and {b} share a plan key");
            }
        }
        // And the same inputs make the same key.
        let again =
            Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(16));
        assert_eq!(
            keys[0].1,
            key(MorphController::new(&again, 8192).micro_batch(4))
        );
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
