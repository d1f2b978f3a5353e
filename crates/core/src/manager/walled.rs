//! The write-ahead-logged plan/degrade/recover step.
//!
//! Both drivers of the manager's decision machine — trace replay
//! ([`Manager::replay_walled`]) and the fleet-arbiter hook
//! ([`Manager::on_external_capacity_walled`]) — funnel every planning
//! attempt through [`Manager::walled_plan_attempt`]. The step first
//! *consumes* any plan-attempt records pending replay in the WAL (crash
//! recovery: no oracle calls), then completes the attempt live, appending
//! each fresh decision to the log. Replayed and live records alike end in
//! the same apply-and-emit: the record's state effect on the recovery
//! machine, then the event [`WalRecord::event`] maps it to. A crash that
//! lands mid-attempt is therefore harmless: recovery replays the logged
//! half and recomputes the rest, deterministically reproducing the
//! decisions the uninterrupted run would have made.
//!
//! One caveat, documented in DESIGN.md §6h: the simulator-in-the-loop
//! oracle's memo table is not rebuilt from the log (its `PlanSearch`
//! counters are logged, so the replayed *prefix* is exact), so plan
//! attempts *after* the log runs out may search against a cold memo
//! table. The analytic oracle — the default everywhere the kill-anywhere
//! digest invariant is enforced — is exact at every boundary.

use varuna_obs::EventBus;

use super::{Manager, ManagerState};
use crate::error::VarunaError;
use crate::morph::MorphDecision;
use crate::wal::{is_plan_attempt_record, ManagerWal, WalIo, WalRecord};

/// What one walled plan attempt decided.
#[derive(Default)]
pub(crate) struct PlanAttempt {
    /// The committed morph decision, when planning succeeded.
    pub decision: Option<MorphDecision>,
    /// Seconds until the next retry, when planning failed.
    pub retry_delay_seconds: Option<f64>,
    /// Whether this attempt closed a degraded episode.
    pub exited_degraded: bool,
    /// Whether the attempt already priced its lost work or described its
    /// search — in a replayed half the live half must not repeat.
    lost_priced: bool,
    search_logged: bool,
}

impl PlanAttempt {
    /// Folds one of the attempt's records in; true when the record ends
    /// the attempt (`Morph` on success, `MorphRetry` on failure).
    fn absorb(&mut self, rec: WalRecord) -> bool {
        match rec {
            WalRecord::DegradedExit { .. } => self.exited_degraded = true,
            WalRecord::LostWork { .. } => self.lost_priced = true,
            WalRecord::PlanSearch { .. } => self.search_logged = true,
            WalRecord::Morph { decision, .. } => {
                self.decision = Some(decision);
                return true;
            }
            WalRecord::MorphRetry {
                backoff_seconds, ..
            } => {
                self.retry_delay_seconds = Some(backoff_seconds);
                return true;
            }
            _ => {}
        }
        false
    }
}

/// A [`ManagerWal`] seen from one plan attempt at `t_hours`: only
/// plan-attempt records logged at that time replay, and a live append
/// while anything is still pending records a divergence.
pub(super) struct AttemptAt<'w> {
    pub wal: &'w mut ManagerWal,
    pub t_hours: f64,
}

impl WalIo for AttemptAt<'_> {
    fn replay_next_attempt(&mut self) -> Option<WalRecord> {
        let t = self.t_hours;
        self.wal
            .replay_next_if(|r| is_plan_attempt_record(r) && r.t_hours() == t)
    }

    fn append_record(&mut self, record: WalRecord) {
        self.wal.append(record);
    }
}

impl Manager<'_> {
    /// Applies a plan-attempt record's effect on the recovery machine,
    /// then emits its event: the one path replayed and live records share.
    fn commit_attempt(&mut self, rec: &WalRecord, bus: &mut EventBus) {
        match *rec {
            WalRecord::DegradedEnter { t_hours, .. } => {
                self.degraded_since = Some(t_hours);
                self.state = ManagerState::Degraded;
                // Pause the job: no config means no progress and no
                // checkpoints until capacity returns.
                self.morph.suspend();
            }
            WalRecord::DegradedExit { .. } => {
                self.degraded_since = None;
                self.state = ManagerState::Running;
                self.backoff.reset();
            }
            WalRecord::MorphRetry { attempt, .. } => self.backoff.restore_attempts(attempt),
            _ => {}
        }
        bus.emit_with(|| rec.event());
    }

    /// One plan/degrade/recover attempt at `t_hours` against `gpus`
    /// schedulable GPUs, for a job at `step` with a durable checkpoint at
    /// `durable_step`, driven through `wal`: pending plan-attempt
    /// records replay first, then the attempt completes live, logging
    /// each decision before committing it. `zero_reason` is the
    /// driver-specific diagnostic for `gpus == 0`.
    pub(crate) fn walled_plan_attempt<W: WalIo>(
        &mut self,
        t_hours: f64,
        gpus: usize,
        (step, durable_step): (u64, u64),
        zero_reason: &str,
        wal: &mut W,
        bus: &mut EventBus,
    ) -> PlanAttempt {
        let mut attempt = PlanAttempt::default();

        // Recovery: consume this attempt's logged records.
        while let Some(rec) = wal.replay_next_attempt() {
            if let WalRecord::Morph {
                gpus_held,
                ref decision,
                ..
            } = rec
            {
                // Live planning commits its plan itself; a replayed morph
                // restores it without consulting the oracle.
                self.morph.restore_plan(gpus_held, decision);
            }
            self.commit_attempt(&rec, bus);
            if attempt.absorb(rec) {
                return attempt;
            }
        }

        // Live completion — possibly of a half-replayed attempt, whose
        // already-committed sub-decisions `attempt` remembers.
        let planned = if gpus == 0 {
            Err(VarunaError::NoFeasibleConfig {
                gpus: 0,
                reason: zero_reason.to_string(),
            })
        } else {
            self.morph
                .on_resources_changed_from(gpus, step, durable_step)
        };
        let mut live = Vec::new();
        match planned {
            Ok(decision) => {
                if let Some(since) = self.degraded_since {
                    live.push(WalRecord::DegradedExit {
                        t_hours,
                        gpus,
                        paused_seconds: (t_hours - since) * 3600.0,
                    });
                }
                // Work past the durable checkpoint is re-run whenever the
                // processes restart — any reshape, and also same-shape
                // replacements in the full-restart baseline. A live
                // migration streams that state instead, so it loses
                // nothing. Price the loss, never roll progress back.
                let lost = step.saturating_sub(durable_step);
                if !attempt.lost_priced && decision.migration_seconds == 0.0 && lost > 0 {
                    live.push(WalRecord::LostWork {
                        t_hours,
                        minibatches: lost,
                        seconds: lost as f64 * decision.config.est_minibatch_time,
                    });
                }
                // On the simulator path, describe the search that
                // produced this decision (deterministic counters only).
                let search = self.morph.take_last_plan_metrics();
                if let Some(pm) = search.filter(|_| !attempt.search_logged) {
                    live.push(WalRecord::PlanSearch {
                        t_hours,
                        candidates: pm.candidates,
                        simulated: pm.simulated,
                        memo_hits: pm.memo_hits,
                        analytic_fallbacks: pm.analytic_fallbacks,
                    });
                }
                live.push(WalRecord::Morph {
                    t_hours,
                    gpus_held: gpus,
                    decision,
                });
            }
            Err(e) => {
                if self.degraded_since.is_none() {
                    live.push(WalRecord::DegradedEnter {
                        t_hours,
                        gpus,
                        reason: e.to_string(),
                    });
                }
                let backoff_seconds = self.backoff.next_delay();
                live.push(WalRecord::MorphRetry {
                    t_hours,
                    attempt: self.backoff.attempts(),
                    backoff_seconds,
                    gpus,
                });
            }
        }
        for rec in live {
            wal.append_record(rec.clone());
            self.commit_attempt(&rec, bus);
            attempt.absorb(rec);
        }
        attempt
    }
}
