//! Critical-path and downtime attribution for the profiler.
//!
//! Two results sit on top of the per-lane decomposition in
//! [`crate::profile()`]:
//!
//! - [`CriticalPath`]: the chain of binding dependencies that ends at the
//!   last op to finish. The per-stage time along it names the bottleneck
//!   stage — the stage to speed up next. The walk that builds it lives in
//!   [`crate::stream`] with the rest of the attribution engine.
//! - [`downtime`] scans manager / cluster events and prices everything
//!   that is *not* useful training time on a spot trace: degraded
//!   pauses, morph restarts, checkpoint write stalls, and re-run (lost)
//!   work, each from its own event field so the components never
//!   double-count.

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind};

/// The critical path through the stream's op graph.
///
/// The dependency model matches the emulator: an op waits on the
/// previous op of its own lane; a forward additionally waits on the same
/// micro-batch's forward one stage upstream; a backward additionally
/// waits on the same micro-batch's backward one stage downstream. Each op
/// is bound to whichever candidate finished last, by the op's start (ties
/// break toward the lowest `(stage, replica)`), as ops fold in start
/// order; when a key repeats (a later mini-batch on the same stream), the
/// latest op with that key is the candidate. A chain starts at an op with
/// no such predecessor, whose start time is charged as initial wait. The
/// path is the chain ending at the last op to finish (ties toward the
/// lowest `(stage, replica, micro)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// End time of the path's final op — the pipeline makespan the path
    /// explains, seconds.
    pub length: f64,
    /// Seconds of the path spent computing.
    pub compute_seconds: f64,
    /// Seconds of the path spent waiting (transfer latency, stalled
    /// dependencies, and the initial warmup from t=0), so
    /// `compute_seconds + wait_seconds == length`.
    pub wait_seconds: f64,
    /// Ops on the path.
    pub ops: usize,
    /// Stage contributing the most compute time to the path — the
    /// pipeline's bottleneck.
    pub bottleneck_stage: usize,
    /// Per-stage compute seconds along the path (index = stage).
    pub stage_seconds: Vec<f64>,
}

/// Priced downtime over a manager / spot-trace event stream.
///
/// The priced components come from disjoint event fields —
/// `DegradedExit::paused_seconds` (plus any still-open episode at stream
/// end), `Morph::restart_seconds`, `Morph::migration_seconds`,
/// `Checkpoint::write_seconds`, and `LostWork::seconds` — so their sum
/// never double-counts. Seconds a checkpoint write spent hidden behind
/// compute (`Checkpoint::overlapped_seconds`) are tracked but *not*
/// priced: they are compute time, not downtime. `useful_seconds` is the
/// remainder of the stream window, making
/// `useful + degraded + restart + migration + checkpoint + lost ==
/// makespan` an identity the chaos tests pin.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DowntimeProfile {
    /// Morph / replacement decisions observed.
    pub morphs: usize,
    /// Morphs that actually changed the `P x D` shape.
    pub reconfigurations: usize,
    /// Same-shape replacements handled by live stage migration instead
    /// of a restart.
    pub migrations: usize,
    /// Successful checkpoints observed.
    pub checkpoints: usize,
    /// Checkpoints that wrote a delta against the last full checkpoint.
    pub delta_checkpoints: usize,
    /// Checkpoint writes that failed (storage outage).
    pub checkpoint_write_failures: usize,
    /// Checkpoints found torn (partial write) at resume validation.
    pub checkpoints_torn: usize,
    /// Control-plane recoveries (WAL replays) observed.
    pub recovery_replays: usize,
    /// VM preemptions observed.
    pub preemptions: usize,
    /// Degraded episodes entered.
    pub degraded_episodes: usize,
    /// Faults injected by the chaos harness.
    pub faults_injected: usize,
    /// Mini-batches explicitly priced as lost.
    pub lost_minibatches: u64,
    /// Seconds paused in the degraded state (closed episodes use the
    /// exit event's own pause; an episode still open at stream end is
    /// charged up to the makespan).
    pub degraded_seconds: f64,
    /// Seconds of fixed morph restart overhead.
    pub morph_restart_seconds: f64,
    /// Seconds spent streaming stage state for live migrations.
    pub migration_seconds: f64,
    /// Seconds of foreground checkpoint write stalls.
    pub checkpoint_write_seconds: f64,
    /// Seconds of checkpoint writes hidden behind compute on the
    /// background lane — informational, never part of
    /// [`DowntimeProfile::downtime_seconds`].
    pub checkpoint_overlapped_seconds: f64,
    /// Seconds of re-run work priced by `LostWork` events.
    pub lost_work_seconds: f64,
    /// Seconds spent replaying the control plane's write-ahead log after
    /// a crash (`RecoveryReplay` events).
    pub recovery_replay_seconds: f64,
    /// The stream window minus every priced component above.
    pub useful_seconds: f64,
}

impl DowntimeProfile {
    /// Total priced downtime (everything but `useful_seconds`).
    pub fn downtime_seconds(&self) -> f64 {
        self.degraded_seconds
            + self.morph_restart_seconds
            + self.migration_seconds
            + self.checkpoint_write_seconds
            + self.lost_work_seconds
            + self.recovery_replay_seconds
    }
}

/// Incremental [`DowntimeProfile`] accumulator — the single place the
/// per-event pricing rules live. Both the [`downtime`] scan and the
/// streaming profiler feed events through `observe` one at a time (in
/// the same order), so both produce byte-identical sums.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct DowntimeAcc {
    /// The profile under construction (`useful_seconds` unset until
    /// [`DowntimeAcc::finish`]).
    pub d: DowntimeProfile,
    /// Enter time of a degraded episode not yet closed by an exit.
    pub open_degraded: Option<f64>,
}

impl DowntimeAcc {
    /// Folds one event into the profile.
    pub fn observe(&mut self, e: &Event) {
        let d = &mut self.d;
        match &e.kind {
            EventKind::Morph {
                reconfigured,
                restart_seconds,
                migration_seconds,
                ..
            } => {
                d.morphs += 1;
                if *reconfigured {
                    d.reconfigurations += 1;
                }
                if *migration_seconds > 0.0 {
                    d.migrations += 1;
                }
                d.morph_restart_seconds += restart_seconds;
                d.migration_seconds += migration_seconds;
            }
            EventKind::Checkpoint {
                write_seconds,
                overlapped_seconds,
                full,
                ..
            } => {
                d.checkpoints += 1;
                if !full {
                    d.delta_checkpoints += 1;
                }
                d.checkpoint_write_seconds += write_seconds;
                d.checkpoint_overlapped_seconds += overlapped_seconds;
            }
            EventKind::CheckpointWriteFailed { .. } => {
                d.checkpoint_write_failures += 1;
            }
            EventKind::CheckpointTorn { .. } => {
                d.checkpoints_torn += 1;
            }
            EventKind::RecoveryReplay { replay_seconds, .. } => {
                d.recovery_replays += 1;
                d.recovery_replay_seconds += replay_seconds;
            }
            EventKind::Preemption { .. } => {
                d.preemptions += 1;
            }
            EventKind::FaultInjected { .. } => {
                d.faults_injected += 1;
            }
            EventKind::DegradedEnter { .. } => {
                d.degraded_episodes += 1;
                self.open_degraded = Some(e.t_sim);
            }
            EventKind::DegradedExit { paused_seconds, .. } => {
                self.open_degraded = None;
                d.degraded_seconds += paused_seconds;
            }
            EventKind::LostWork {
                minibatches,
                seconds,
            } => {
                d.lost_minibatches += minibatches;
                d.lost_work_seconds += seconds;
            }
            _ => {}
        }
    }

    /// Closes the stream window at `makespan`: a still-open degraded
    /// episode is charged up to it and `useful_seconds` is set.
    pub fn finish(mut self, makespan: f64) -> DowntimeProfile {
        if let Some(since) = self.open_degraded {
            self.d.degraded_seconds += (makespan - since).max(0.0);
        }
        self.d.useful_seconds = makespan - self.d.downtime_seconds();
        self.d
    }
}

/// Computes the [`DowntimeProfile`] of a stream whose window is
/// `[0, makespan]`.
pub fn downtime(events: &[Event], makespan: f64) -> DowntimeProfile {
    let mut acc = DowntimeAcc::default();
    for e in events {
        acc.observe(e);
    }
    acc.finish(makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;

    fn op(stage: usize, replica: usize, op: char, micro: usize, start: f64, end: f64) -> Event {
        Event::exec(
            end,
            EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                start,
            },
        )
    }

    #[test]
    fn empty_spans_have_no_critical_path() {
        assert!(profile(&[]).critical_path.is_none());
    }

    #[test]
    fn a_chained_pipeline_is_fully_explained() {
        // Exact chaining: F0 -> F1 -> B1 -> B0, zero latency.
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            op(1, 0, 'F', 0, 1.0, 2.0),
            op(1, 0, 'B', 0, 2.0, 4.0),
            op(0, 0, 'B', 0, 4.0, 6.0),
        ];
        let c = profile(&events).critical_path.unwrap();
        assert_eq!(c.length, 6.0);
        assert_eq!(c.ops, 4);
        assert!((c.compute_seconds - 6.0).abs() < 1e-9);
        assert!(c.wait_seconds.abs() < 1e-9);
        assert!((c.compute_seconds + c.wait_seconds - c.length).abs() < 1e-9);
        // Both stages carry 3s; tie breaks to the lower stage.
        assert_eq!(c.bottleneck_stage, 0);
        assert_eq!(c.stage_seconds, vec![3.0, 3.0]);
    }

    #[test]
    fn transfer_latency_appears_as_wait() {
        let events = vec![
            op(0, 0, 'F', 0, 0.5, 1.0),  // 0.5 initial wait
            op(1, 0, 'F', 0, 1.25, 2.0), // 0.25 transfer gap
        ];
        let c = profile(&events).critical_path.unwrap();
        assert_eq!(c.length, 2.0);
        assert!((c.compute_seconds - 1.25).abs() < 1e-9);
        assert!((c.wait_seconds - 0.75).abs() < 1e-9);
        assert_eq!(c.bottleneck_stage, 1);
    }

    #[test]
    fn the_slow_stage_is_the_bottleneck() {
        // Stage 1 is 4x slower; the path should spend its time there.
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            op(0, 0, 'F', 1, 1.0, 2.0),
            op(1, 0, 'F', 0, 1.0, 5.0),
            op(1, 0, 'F', 1, 5.0, 9.0),
            op(1, 0, 'B', 1, 9.0, 13.0),
            op(0, 0, 'B', 1, 13.0, 14.0),
        ];
        let c = profile(&events).critical_path.unwrap();
        assert_eq!(c.bottleneck_stage, 1);
        assert!(c.stage_seconds[1] > c.stage_seconds[0]);
        assert!((c.compute_seconds + c.wait_seconds - c.length).abs() < 1e-9);
    }

    #[test]
    fn repeated_op_keys_bind_the_latest_minibatch() {
        // Two back-to-back mini-batches of a 2-stage pipeline on one
        // stream, `micro` 0 in both: the second mini-batch's ops repeat
        // the first's keys. The path runs through both mini-batches and
        // charges only the 6 s -> 10 s gap between them as wait.
        let mut events = Vec::new();
        for t0 in [0.0, 10.0] {
            events.push(op(0, 0, 'F', 0, t0, t0 + 1.0));
            events.push(op(1, 0, 'F', 0, t0 + 1.0, t0 + 2.0));
            events.push(op(1, 0, 'B', 0, t0 + 2.0, t0 + 4.0));
            events.push(op(0, 0, 'B', 0, t0 + 4.0, t0 + 6.0));
        }
        let c = profile(&events).critical_path.unwrap();
        assert_eq!(c.length, 16.0);
        assert_eq!(c.ops, 8);
        assert_eq!(c.compute_seconds, 12.0);
        assert_eq!(c.wait_seconds, 4.0);
        assert_eq!(c.stage_seconds, vec![6.0, 6.0]);
    }

    #[test]
    fn zero_duration_spans_terminate() {
        // Degenerate all-zero spans at t=0 must not loop forever.
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 0.0),
            op(0, 0, 'F', 1, 0.0, 0.0),
            op(1, 0, 'F', 0, 0.0, 0.0),
        ];
        let c = profile(&events).critical_path.unwrap();
        assert_eq!(c.length, 0.0);
        assert!(c.ops <= events.len() + 1);
    }

    #[test]
    fn downtime_prices_each_component_once() {
        let events = vec![
            Event::manager(
                100.0,
                EventKind::LostWork {
                    minibatches: 5,
                    seconds: 50.0,
                },
            ),
            Event::manager(
                100.0,
                EventKind::Morph {
                    p: 4,
                    d: 2,
                    gpus_held: 8,
                    gpus_used: 8,
                    examples_per_sec: 10.0,
                    examples_per_sec_per_gpu: 1.25,
                    reconfigured: true,
                    restart_seconds: 60.0,
                    migration_seconds: 0.0,
                },
            ),
            Event::manager(
                150.0,
                EventKind::Morph {
                    p: 4,
                    d: 2,
                    gpus_held: 8,
                    gpus_used: 8,
                    examples_per_sec: 10.0,
                    examples_per_sec_per_gpu: 1.25,
                    reconfigured: false,
                    restart_seconds: 0.0,
                    migration_seconds: 1.5,
                },
            ),
            Event::manager(
                200.0,
                EventKind::Checkpoint {
                    step: 16,
                    gpus_held: 8,
                    gpus_used: 8,
                    p: 4,
                    d: 2,
                    examples_per_sec: 10.0,
                    examples_per_sec_per_gpu: 1.25,
                    write_seconds: 2.5,
                    overlapped_seconds: 4.0,
                    full: false,
                },
            ),
            Event::manager(
                300.0,
                EventKind::DegradedEnter {
                    gpus: 0,
                    reason: "x".into(),
                },
            ),
            Event::manager(
                400.0,
                EventKind::DegradedExit {
                    gpus: 8,
                    paused_seconds: 100.0,
                },
            ),
        ];
        let d = downtime(&events, 1000.0);
        assert_eq!(d.morphs, 2);
        assert_eq!(d.reconfigurations, 1);
        assert_eq!(d.migrations, 1);
        assert_eq!(d.checkpoints, 1);
        assert_eq!(d.delta_checkpoints, 1);
        assert_eq!(d.lost_minibatches, 5);
        assert_eq!(d.degraded_episodes, 1);
        assert_eq!(d.degraded_seconds, 100.0);
        assert_eq!(d.morph_restart_seconds, 60.0);
        assert_eq!(d.migration_seconds, 1.5);
        assert_eq!(d.checkpoint_write_seconds, 2.5);
        // Overlapped write time is informational only: it is hidden behind
        // compute and must never be priced as downtime.
        assert_eq!(d.checkpoint_overlapped_seconds, 4.0);
        assert_eq!(d.lost_work_seconds, 50.0);
        assert_eq!(d.downtime_seconds(), 214.0);
        assert_eq!(d.useful_seconds, 786.0);
        assert!((d.useful_seconds + d.downtime_seconds() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_replay_is_priced_as_downtime() {
        let events = vec![
            Event::manager(
                50.0,
                EventKind::CheckpointTorn {
                    step: 32,
                    bytes_written: 100,
                    bytes_expected: 400,
                },
            ),
            Event::recovery(
                500.0,
                EventKind::RecoveryReplay {
                    wal_records: 120,
                    torn: false,
                    dropped_bytes: 0,
                    replay_seconds: 0.24,
                },
            ),
        ];
        let d = downtime(&events, 1000.0);
        assert_eq!(d.checkpoints_torn, 1);
        assert_eq!(d.recovery_replays, 1);
        assert!((d.recovery_replay_seconds - 0.24).abs() < 1e-12);
        assert!((d.downtime_seconds() - 0.24).abs() < 1e-12);
        assert!((d.useful_seconds + d.downtime_seconds() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn an_open_degraded_episode_is_charged_to_stream_end() {
        let events = vec![Event::manager(
            600.0,
            EventKind::DegradedEnter {
                gpus: 0,
                reason: "capacity collapse".into(),
            },
        )];
        let d = downtime(&events, 1000.0);
        assert_eq!(d.degraded_seconds, 400.0);
        assert_eq!(d.useful_seconds, 600.0);
    }
}
