//! The Varuna manager (paper §4.6) and its recovery state machine.
//!
//! Runs on a dedicated VM and watches the job: it detects preemptions (no
//! heartbeat), corrects fail-stutter VMs (outlier compute times → excluded
//! from placement), keeps trying to grow the cluster, and triggers
//! morphing whenever the available GPU set changes. Replaying a cluster
//! trace through the manager produces the dynamic timeline of the paper's
//! Figure 8.
//!
//! The module splits along the manager's responsibilities:
//!
//! - [`grace`](self): the [`GracePolicy`] tolerance windows,
//! - [`timeline`](self): the [`TimelinePoint`] samples and
//!   [`ManagerState`] machine states,
//! - `heartbeats`: fail-stutter detection and re-admission,
//! - `replay`: the discrete-event trace replay and recovery loop,
//! - `external`: the fleet-arbiter hook, the second driver,
//! - `walled`: the plan/degrade/recover attempt both drivers share.
//!
//! Every decision takes one path: build its [`crate::WalRecord`], replay
//! or append it through the write-ahead log, apply its state effect, then
//! emit the event [`crate::WalRecord::event`] maps it to.
//!
//! # Recovery state machine
//!
//! Beyond the happy path, the manager survives injected faults (see the
//! `varuna-chaos` crate) through an explicit two-state machine:
//!
//! ```text
//!            plan fails / zero schedulable GPUs
//!   Running ────────────────────────────────────▶ Degraded
//!      ▲        (DegradedEnter, job suspended)       │
//!      │                                             │ retry with
//!      │   plan succeeds (DegradedExit + Morph,      │ exponential
//!      └──── backoff reset, paused time priced) ◀────┘ backoff
//! ```
//!
//! The episode's start is one clock, shared by both drivers and moved only
//! by applying `DegradedEnter`/`DegradedExit` records; trace replay resets
//! it on entry. While `Degraded`, training is paused (no progress, no
//! checkpoints) and replanning retries follow [`MorphBackoff`]'s
//! exponential schedule, plus an immediate retry whenever new trace
//! events arrive. Heartbeat silence
//! is tolerated for a grace window before the VM is treated as lost
//! ([`GracePolicy::silence_grace_seconds`]), and silent VMs that resume
//! are re-admitted. Checkpoint writes during a storage outage fail (the
//! durable resume point does not advance), a corrupt checkpoint falls
//! back one interval, and an eviction notice triggers a proactive
//! checkpoint. Work is never rolled back: mini-batch progress is
//! monotone, and work at risk beyond the durable checkpoint is priced
//! explicitly as `LostWork`/downtime.

mod external;
mod grace;
mod heartbeats;
mod replay;
#[cfg(test)]
mod tests;
mod timeline;
mod walled;

pub use grace::GracePolicy;
pub use timeline::{ManagerState, TimelineEvent, TimelinePoint};

use std::collections::BTreeMap;
use varuna_cluster::cluster::VmId;
use varuna_cluster::heartbeat::HeartbeatMonitor;

use crate::calibrate::Calibration;
use crate::checkpoint::CheckpointPolicy;
use crate::morph::{MorphBackoff, MorphController, PlanCache};

/// The manager: heartbeat tracking plus morph orchestration and recovery.
pub struct Manager<'a> {
    morph: MorphController<'a>,
    monitor: HeartbeatMonitor,
    checkpoint: CheckpointPolicy,
    grace: GracePolicy,
    backoff: MorphBackoff,
    state: ManagerState,
    excluded: Vec<VmId>,
    miss_streak: BTreeMap<VmId, u32>,
    healthy_streak: BTreeMap<VmId, u32>,
    /// When the current degraded episode began (hours) — the one episode
    /// clock both drivers share. Trace replay resets it on entry.
    degraded_since: Option<f64>,
}

impl<'a> Manager<'a> {
    /// A manager for a job calibrated as `calib` with fixed `m_total`.
    pub fn new(calib: &'a Calibration, m_total: usize, micro: usize) -> Self {
        Manager {
            morph: MorphController::new(calib, m_total).micro_batch(micro),
            monitor: HeartbeatMonitor::default_tuning(),
            checkpoint: CheckpointPolicy::default_tuning(),
            grace: GracePolicy::default_tuning(),
            backoff: MorphBackoff::default_tuning(),
            state: ManagerState::Running,
            excluded: Vec::new(),
            miss_streak: BTreeMap::new(),
            healthy_streak: BTreeMap::new(),
            degraded_since: None,
        }
    }

    /// Replaces the grace policy.
    pub fn with_grace(mut self, grace: GracePolicy) -> Self {
        self.grace = grace;
        self
    }

    /// Replaces the morph-retry backoff schedule.
    pub fn with_backoff(mut self, backoff: MorphBackoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Replaces the checkpoint policy (e.g. a denser interval).
    pub fn with_checkpoint(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// The active checkpoint policy.
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        self.checkpoint
    }

    /// Switches the manager to the zero-downtime morphing stack: delta
    /// checkpoints anchored on periodic fulls
    /// ([`CheckpointPolicy::zero_downtime_tuning`]), checkpoint writes
    /// overlapped with compute, a delta flush gating every capacity
    /// change (so reconfigurations lose no work), and live stage
    /// migration for same-shape VM replacements.
    pub fn with_zero_downtime(mut self) -> Self {
        self.checkpoint = CheckpointPolicy::zero_downtime_tuning();
        self.morph = self
            .morph
            .with_live_migration(MorphController::DEFAULT_MIGRATION_BANDWIDTH)
            .expect("default migration bandwidth is valid");
        self
    }

    /// Whether [`Manager::with_zero_downtime`] is active (live migration
    /// enabled on the morph controller).
    pub fn zero_downtime(&self) -> bool {
        self.morph.live_migration_enabled()
    }

    /// Enables the planner's recovery ladder (reduced micro-batch, then
    /// offload) when the preferred configuration stops fitting.
    pub fn with_fallback(mut self) -> Self {
        self.morph = self.morph.with_fallback();
        self
    }

    /// Enables simulator-in-the-loop re-planning: every morph scores its
    /// candidates on the discrete-event emulator under `budget` (memoized
    /// across morph events, analytic fallback once the budget runs out),
    /// and replays emit an [`varuna_obs::EventKind::PlanSearch`] event per
    /// planning decision. Shorthand for
    /// [`Manager::with_oracle`]`(Oracle::sim(budget))`.
    pub fn with_sim_planner(self, budget: crate::plansearch::PlanBudget) -> Self {
        self.with_oracle(crate::oracle::Oracle::sim(budget))
    }

    /// Replaces the plan oracle ([`crate::oracle::Oracle`]) that
    /// best-configuration decisions come from.
    pub fn with_oracle(mut self, oracle: crate::oracle::Oracle) -> Self {
        self.morph = self.morph.with_oracle(oracle);
        self
    }

    /// Plans through `cache`, shared with every manager holding a clone
    /// of it (see [`PlanCache`]); otherwise the manager keeps a private
    /// one. Only analytic plans go through it.
    pub fn with_plan_cache(mut self, cache: PlanCache) -> Self {
        self.morph = self.morph.with_plan_cache(cache);
        self
    }

    /// The configuration the job currently runs, if any.
    pub fn current_config(&self) -> Option<&crate::planner::Config> {
        self.morph.current()
    }

    /// Where the recovery machine currently sits.
    pub fn state(&self) -> ManagerState {
        self.state
    }

    /// The active grace policy.
    pub fn grace(&self) -> GracePolicy {
        self.grace
    }
}
