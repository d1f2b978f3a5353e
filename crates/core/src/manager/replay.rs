//! Discrete-event trace replay: morphing, checkpointing, and recovery.
//!
//! Every externally visible control decision flows through a
//! [`ManagerWal`] along one path: build the [`WalRecord`], replay or
//! append it ([`crate::wal::Wal::step`]), apply its state effect, then
//! emit [`WalRecord::event`]. [`Manager::recover_on_bus`] rebuilds a
//! killed run by replaying the log prefix against the same trace — see
//! DESIGN.md §6h.

use std::collections::{BTreeMap, BTreeSet};
use varuna_cluster::trace::{ClusterEventKind, ClusterTrace};
use varuna_obs::{Event, EventBus, EventKind, VecSink};

use varuna_exec::{BackgroundLane, LaneCharge};

use super::walled::AttemptAt;
use super::{Manager, ManagerState, TimelinePoint};
use crate::checkpoint::{CheckpointKind, PartialWrite};
use crate::error::VarunaError;
use crate::planner::Config;
use crate::wal::{ManagerWal, RecoveryReport, WalError, WalRecord};

/// The trace-replay loop's own state; the manager holds the rest (plan,
/// backoff, degraded-episode clock).
#[derive(Default)]
struct ReplayState {
    /// GPUs granted per VM.
    held: BTreeMap<u64, usize>,
    /// VMs omitted from scheduling as fail-stutter outliers.
    stuttering: BTreeSet<u64>,
    /// Silent-but-still-granted VMs and when their silence began.
    silent_since: BTreeMap<u64, f64>,
    /// Silent VMs whose grace window expired: treated as lost capacity.
    lost_to_silence: BTreeSet<u64>,
    storage_outage: bool,
    /// Mini-batch progress; monotone, never rolled back.
    step: f64,
    /// Schedule pointer for periodic checkpoints (interval multiples).
    last_ckpt_step: u64,
    /// The step a resume would actually restart from.
    durable_step: u64,
    /// Periodic/proactive checkpoints committed; the next one's 1-based
    /// ordinal, minus one, feeds `CheckpointPolicy::kind_for`'s cadence.
    ckpt_ordinal: u64,
    /// Step of the newest durable *full* checkpoint — the anchor every
    /// delta chains to, and the fallback for a torn delta.
    last_full_step: u64,
    /// Overlapped-write lane (paper §4.5): with `overlap_writes` the
    /// foreground pays only the backpressure stall; the write itself
    /// drains behind compute. Restored identically from replayed
    /// records, so recovery preserves the lane horizon.
    lane: BackgroundLane,
    /// The previous action point, hours.
    last_t: f64,
    next_retry_at: Option<f64>,
    grace_wakeups: Vec<f64>,
}

impl ReplayState {
    /// Replays or logs one decision at a trace-replay site at `t_hours`
    /// (a pending record must be of the `kind` the site makes, logged at
    /// that time), applies its effect on the loop's checkpoint anchors,
    /// and emits its event.
    fn decide(
        &mut self,
        wal: &mut ManagerWal,
        bus: &mut EventBus,
        t_hours: f64,
        kind: fn(&WalRecord) -> bool,
        live: impl FnOnce(&mut Self) -> WalRecord,
    ) -> Result<(), WalError> {
        let rec = wal.step(|r| kind(r) && r.t_hours() == t_hours, || live(self))?;
        match rec {
            WalRecord::Checkpoint {
                t_hours,
                step,
                write_seconds,
                overlapped_seconds,
                kind,
                ..
            } => {
                self.durable_step = self.durable_step.max(step);
                self.ckpt_ordinal += 1;
                if kind.is_full() {
                    self.last_full_step = self.last_full_step.max(step);
                }
                // Idempotent with a live `submit`: either path leaves the
                // lane draining at `t + stall + overlapped`.
                self.lane.restore(
                    t_hours * 3600.0,
                    LaneCharge {
                        stall_seconds: write_seconds,
                        overlapped_seconds,
                    },
                );
            }
            WalRecord::DeltaFlush { step, .. } => self.durable_step = self.durable_step.max(step),
            WalRecord::CheckpointFallback { to_step, .. } => self.durable_step = to_step,
            _ => {}
        }
        bus.emit_with(|| rec.event());
        Ok(())
    }

    /// The newest checkpoint stopped short mid-write (`expected` bytes,
    /// `fraction` landed): surface the typed partial write, then fall
    /// back to `to_step`.
    fn torn(
        &mut self,
        wal: &mut ManagerWal,
        bus: &mut EventBus,
        t: f64,
        expected: u64,
        fraction: f64,
        to_step: u64,
    ) -> Result<(), WalError> {
        self.decide(
            wal,
            bus,
            t,
            |r| matches!(r, WalRecord::CheckpointTorn { .. }),
            |rs| WalRecord::CheckpointTorn {
                t_hours: t,
                step: rs.durable_step,
                partial: PartialWrite {
                    bytes_written: (expected as f64 * fraction.clamp(0.0, 1.0)) as u64,
                    bytes_expected: expected,
                },
            },
        )?;
        self.fall_back(wal, bus, t, to_step)
    }

    /// The durable point falls back to `to_step` (corrupt or torn newest
    /// checkpoint).
    fn fall_back(
        &mut self,
        wal: &mut ManagerWal,
        bus: &mut EventBus,
        t: f64,
        to_step: u64,
    ) -> Result<(), WalError> {
        self.decide(
            wal,
            bus,
            t,
            |r| matches!(r, WalRecord::CheckpointFallback { .. }),
            |rs| WalRecord::CheckpointFallback {
                t_hours: t,
                from_step: rs.durable_step,
                to_step,
            },
        )
    }
}

impl Manager<'_> {
    /// Foreground pause priced for one sharded checkpoint write under
    /// `cfg` — the policy's local-SSD cost model over this config's
    /// per-stage shard. Infeasible inputs price as zero rather than
    /// failing the replay.
    fn checkpoint_write_seconds(&self, cfg: &Config) -> f64 {
        let stage_params = self.morph.calibration().model.total_params() / cfg.p.max(1) as u64;
        self.checkpoint
            .pause_seconds(stage_params, cfg.d)
            .unwrap_or(0.0)
    }

    /// Bytes of one full checkpoint of the model.
    fn checkpoint_bytes(&self) -> u64 {
        self.morph
            .calibration()
            .model
            .total_params()
            .saturating_mul(16)
    }

    /// A periodic (or, on an eviction notice, proactive) checkpoint of
    /// `cfg` covering `step` at `t_hours`: full or delta per the policy's
    /// cadence, its write priced in the foreground or on the overlapped
    /// lane.
    fn checkpoint_record(
        &self,
        rs: &mut ReplayState,
        cfg: &Config,
        t_hours: f64,
        step: u64,
        gpus_held: usize,
        proactive: bool,
    ) -> WalRecord {
        let kind = self
            .checkpoint
            .kind_for(rs.ckpt_ordinal + 1, rs.last_full_step);
        let cost = self.checkpoint_write_seconds(cfg) * self.checkpoint.write_fraction(kind);
        let (write_seconds, overlapped_seconds) = if self.checkpoint.overlap_writes {
            let c = rs.lane.submit(t_hours * 3600.0, cost);
            (c.stall_seconds, c.overlapped_seconds)
        } else {
            (cost, 0.0)
        };
        WalRecord::Checkpoint {
            t_hours,
            step,
            gpus_held,
            gpus_used: cfg.gpus_used(),
            p: cfg.p,
            d: cfg.d,
            examples_per_sec: cfg.throughput(),
            examples_per_sec_per_gpu: cfg.throughput_per_gpu(),
            write_seconds,
            overlapped_seconds,
            kind,
            proactive,
        }
    }

    /// Replays a cluster trace, morphing on every capacity change, and
    /// returns the Figure 8 timeline.
    ///
    /// A convenience wrapper over [`Manager::replay_on_bus`]: it captures
    /// the events on a private bus and maps them through
    /// [`TimelinePoint::from_event`].
    ///
    /// # Errors
    ///
    /// Infeasible capacity no longer fails the replay — the manager parks
    /// in [`ManagerState::Degraded`] and retries — so errors are reserved
    /// for genuinely invalid inputs.
    pub fn replay(&mut self, trace: &ClusterTrace) -> Result<Vec<TimelinePoint>, VarunaError> {
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        self.replay_on_bus(trace, &mut bus)?;
        Ok(sink
            .take()
            .iter()
            .filter_map(TimelinePoint::from_event)
            .collect())
    }

    /// Replays a cluster trace against a fresh write-ahead log.
    ///
    /// Equivalent to [`Manager::replay_walled`] with an empty
    /// [`ManagerWal`] that is discarded afterwards; use the walled
    /// variant to keep the log for crash recovery.
    ///
    /// # Errors
    ///
    /// Infeasible capacity parks the manager in
    /// [`ManagerState::Degraded`] rather than failing; errors are
    /// reserved for invalid inputs.
    pub fn replay_on_bus(
        &mut self,
        trace: &ClusterTrace,
        bus: &mut EventBus,
    ) -> Result<(), VarunaError> {
        self.replay_walled(trace, bus, &mut ManagerWal::new())
    }

    /// Recovers a killed run from its write-ahead log.
    ///
    /// `wal` is the log as decoded by [`crate::wal::Wal::from_bytes`]
    /// (a possibly torn tail already truncated at the last clean frame
    /// boundary). The trace is re-run from the start with every logged
    /// decision *replayed* rather than recomputed; once the log is
    /// exhausted the run continues live, appending to the same log. For
    /// a deterministic trace this reproduces the uninterrupted run's
    /// control-event stream and WAL bytes exactly — the kill-anywhere
    /// invariant enforced by `varuna-chaos`.
    ///
    /// A [`varuna_obs::Source::Recovery`]-tagged `RecoveryReplay` event
    /// prices the replay itself (`REPLAY_SECONDS_PER_RECORD` per logged
    /// record) as downtime for `varuna-profile`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Manager::replay_walled`].
    pub fn recover_on_bus(
        &mut self,
        trace: &ClusterTrace,
        bus: &mut EventBus,
        wal: &mut ManagerWal,
    ) -> Result<RecoveryReport, VarunaError> {
        let report = wal.recovery_report();
        self.replay_walled(trace, bus, wal)?;
        Ok(report)
    }

    /// Replays a cluster trace, reporting every preemption, fault, morph /
    /// replacement decision, recovery action, and periodic checkpoint
    /// through `bus` as [`varuna_obs::Event`]s (`t_sim` in seconds since
    /// trace start), logging each control decision to `wal` before its
    /// event is emitted.
    ///
    /// When `wal` holds pending records (a recovery, see
    /// [`Manager::recover_on_bus`]) those decisions are replayed from the
    /// log instead of recomputed; a fresh log makes this identical to the
    /// historical un-walled replay.
    ///
    /// Morph and checkpoint events are self-contained — they carry the
    /// held/used GPU counts and throughputs — so
    /// [`TimelinePoint::from_event`] rebuilds the Figure 8 timeline from
    /// the stream alone (fault and recovery events map to no point).
    ///
    /// The replay is a small discrete-event loop over *action points*:
    /// trace-event timestamps, silence-grace expiries, and backoff-gated
    /// morph retries. It is fully deterministic — the same trace produces
    /// a byte-identical event stream.
    ///
    /// # Errors
    ///
    /// Infeasible capacity parks the manager in
    /// [`ManagerState::Degraded`] rather than failing; errors are
    /// reserved for invalid inputs and for a log that does not belong to
    /// this run ([`VarunaError::Wal`] wrapping
    /// [`WalError::Diverged`]).
    pub fn replay_walled(
        &mut self,
        trace: &ClusterTrace,
        bus: &mut EventBus,
        wal: &mut ManagerWal,
    ) -> Result<(), VarunaError> {
        // Announce a recovery before re-running the trace: the replayed
        // prefix is priced as control-plane downtime, tagged
        // `Source::Recovery` so digests of the *decision* stream are
        // unaffected.
        wal.announce_recovery(bus, WalRecord::t_hours);

        let mut rs = ReplayState::default();
        let duration = trace.duration_hours;
        let grace_hours = self.grace.silence_grace_seconds / 3600.0;
        self.state = ManagerState::Running;
        self.degraded_since = None;

        let mut i = 0;
        loop {
            // Next action point: trace event, grace expiry, or retry.
            let mut t = f64::INFINITY;
            if i < trace.events.len() {
                t = trace.events[i].time_hours;
            }
            for &w in &rs.grace_wakeups {
                if w < t {
                    t = w;
                }
            }
            if let Some(r) = rs.next_retry_at {
                if r < t {
                    t = r;
                }
            }
            if !t.is_finite() || t > duration {
                break;
            }

            // Advance training between last_t and t under the current
            // config, emitting periodic checkpoint markers. During a
            // storage outage the write fails and the durable step stays.
            if let Some(cfg) = self.morph.current().cloned() {
                let last_t = rs.last_t;
                let steps_done = (t - last_t) * 3600.0 / cfg.est_minibatch_time;
                rs.step += steps_done;
                let interval = self.checkpoint.interval_minibatches;
                while rs.step as u64 >= rs.last_ckpt_step + interval {
                    rs.last_ckpt_step += interval;
                    let s = rs.last_ckpt_step;
                    let t_ckpt = last_t
                        + (t - last_t)
                            * ((s as f64 - (rs.step - steps_done)) / steps_done.max(1e-9));
                    if rs.storage_outage {
                        rs.decide(
                            wal,
                            bus,
                            t_ckpt,
                            |r| matches!(r, WalRecord::CheckpointFailed { .. }),
                            |_| WalRecord::CheckpointFailed {
                                t_hours: t_ckpt,
                                step: s,
                            },
                        )?;
                    } else {
                        let held = rs.held.values().sum();
                        rs.decide(
                            wal,
                            bus,
                            t_ckpt,
                            |r| matches!(r, WalRecord::Checkpoint { .. }),
                            |rs| self.checkpoint_record(rs, &cfg, t_ckpt, s, held, false),
                        )?;
                    }
                }
            }
            rs.last_t = t;

            // Snapshot capacity before applying this timestamp's events:
            // proactive checkpoints emitted mid-application must describe
            // the state the active config was planned against, not a
            // half-applied one.
            let held_before: usize = rs.held.values().sum();

            // Apply all trace events at this timestamp.
            let mut applied = false;
            while i < trace.events.len() && trace.events[i].time_hours == t {
                applied = true;
                let e = &trace.events[i];
                match e.kind {
                    ClusterEventKind::Granted { gpus } => {
                        rs.held.insert(e.vm, gpus);
                    }
                    ClusterEventKind::Preempted => {
                        rs.held.remove(&e.vm);
                        rs.stuttering.remove(&e.vm);
                        rs.silent_since.remove(&e.vm);
                        rs.lost_to_silence.remove(&e.vm);
                        self.monitor.forget(e.vm);
                        bus.emit_with(|| {
                            Event::manager(t * 3600.0, EventKind::Preemption { vm: e.vm })
                        });
                    }
                    // §4.6: outlier heartbeat timings get the VM omitted
                    // from scheduling; it counts as lost capacity until it
                    // recovers or is replaced.
                    ClusterEventKind::StutterStart { .. } => {
                        rs.stuttering.insert(e.vm);
                    }
                    ClusterEventKind::StutterEnd => {
                        rs.stuttering.remove(&e.vm);
                    }
                    ClusterEventKind::EvictionNotice { lead_hours } => {
                        bus.emit_with(|| {
                            Event::cluster(
                                t * 3600.0,
                                EventKind::EvictionNotice {
                                    vm: e.vm,
                                    lead_seconds: lead_hours * 3600.0,
                                },
                            )
                        });
                        // §4.5: use the warning to checkpoint proactively,
                        // moving the durable point up to "now".
                        let cfg = self.morph.current().filter(|_| !rs.storage_outage);
                        if let Some(cfg) = cfg.cloned() {
                            let s = rs.step as u64;
                            if s > rs.durable_step {
                                rs.decide(
                                    wal,
                                    bus,
                                    t,
                                    |r| matches!(r, WalRecord::Checkpoint { .. }),
                                    |rs| self.checkpoint_record(rs, &cfg, t, s, held_before, true),
                                )?;
                            }
                        }
                    }
                    ClusterEventKind::SilenceStart => {
                        rs.silent_since.insert(e.vm, t);
                        bus.emit_with(|| {
                            Event::cluster(t * 3600.0, EventKind::SilenceStart { vm: e.vm })
                        });
                        let expiry = t + grace_hours;
                        if expiry <= duration {
                            rs.grace_wakeups.push(expiry);
                        }
                    }
                    ClusterEventKind::SilenceEnd => {
                        rs.silent_since.remove(&e.vm);
                        bus.emit_with(|| {
                            Event::cluster(t * 3600.0, EventKind::SilenceEnd { vm: e.vm })
                        });
                        if rs.lost_to_silence.remove(&e.vm) {
                            rs.decide(
                                wal,
                                bus,
                                t,
                                |r| matches!(r, WalRecord::VmReadmitted { .. }),
                                |_| WalRecord::VmReadmitted {
                                    t_hours: t,
                                    vm: e.vm,
                                },
                            )?;
                        }
                    }
                    ClusterEventKind::StorageOutageStart => {
                        rs.storage_outage = true;
                    }
                    ClusterEventKind::StorageOutageEnd => {
                        rs.storage_outage = false;
                    }
                    ClusterEventKind::CheckpointCorrupt => {
                        let to = rs
                            .durable_step
                            .saturating_sub(self.checkpoint.interval_minibatches);
                        rs.fall_back(wal, bus, t, to)?;
                    }
                    // The newest checkpoint stopped short mid-write: fall
                    // back one interval exactly like corruption.
                    ClusterEventKind::CheckpointTorn { fraction } => {
                        let to = rs
                            .durable_step
                            .saturating_sub(self.checkpoint.interval_minibatches);
                        rs.torn(wal, bus, t, self.checkpoint_bytes(), fraction, to)?;
                    }
                    // A torn *delta* frame. Detection is identical to a
                    // torn full write, but the broken chain only
                    // invalidates the frames past the anchor: the durable
                    // point falls back to the newest full checkpoint, not
                    // a whole interval back.
                    ClusterEventKind::DeltaTorn { fraction } => {
                        let expected = (self.checkpoint_bytes() as f64
                            * self.checkpoint.write_fraction(CheckpointKind::Delta {
                                base_step: rs.last_full_step,
                            })) as u64;
                        let to = rs.last_full_step.min(rs.durable_step);
                        rs.torn(wal, bus, t, expected, fraction, to)?;
                    }
                }
                i += 1;
            }

            // Expire silence grace windows due at t: the VM is now treated
            // as lost capacity (exactly once per episode).
            rs.grace_wakeups.retain(|&w| w > t);
            let expired: Vec<u64> = rs
                .silent_since
                .iter()
                .filter(|(vm, &since)| {
                    t >= since + grace_hours && !rs.lost_to_silence.contains(*vm)
                })
                .map(|(vm, _)| *vm)
                .collect();
            let newly_lost = !expired.is_empty();
            for vm in expired {
                rs.lost_to_silence.insert(vm);
                rs.decide(
                    wal,
                    bus,
                    t,
                    |r| matches!(r, WalRecord::VmExcluded { .. }),
                    |_| WalRecord::VmExcluded {
                        t_hours: t,
                        vm,
                        consecutive_misses: self.grace.exclude_after,
                    },
                )?;
            }

            let retry_due = matches!(rs.next_retry_at, Some(r) if t >= r);
            if retry_due {
                rs.next_retry_at = None;
            }
            if !(applied || newly_lost || retry_due) {
                continue;
            }

            // Schedulable capacity: granted minus stuttering minus
            // silence-lost VMs.
            let gpus: usize = rs
                .held
                .iter()
                .filter(|(vm, _)| !rs.stuttering.contains(*vm) && !rs.lost_to_silence.contains(*vm))
                .map(|(_, g)| *g)
                .sum();

            // Zero-downtime morphing: before any replanning, the running
            // processes flush a delta so the durable point catches up to
            // "now" — a reshape then restarts with (almost) no lost work
            // (DESIGN.md §6i). The flush gates the morph, so it is never
            // overlapped; it is skipped during a storage outage, exactly
            // like a periodic write.
            if self.checkpoint.delta_enabled()
                && !rs.storage_outage
                && (rs.step as u64) > rs.durable_step
            {
                if let Some(cfg) = self.morph.current().cloned() {
                    rs.decide(
                        wal,
                        bus,
                        t,
                        |r| matches!(r, WalRecord::DeltaFlush { .. }),
                        |rs| WalRecord::DeltaFlush {
                            t_hours: t,
                            step: rs.step as u64,
                            base_step: rs.last_full_step,
                            gpus_held: held_before,
                            gpus_used: cfg.gpus_used(),
                            p: cfg.p,
                            d: cfg.d,
                            examples_per_sec: cfg.throughput(),
                            examples_per_sec_per_gpu: cfg.throughput_per_gpu(),
                            write_seconds: self.checkpoint_write_seconds(&cfg)
                                * self.checkpoint.write_fraction(CheckpointKind::Delta {
                                    base_step: rs.last_full_step,
                                }),
                        },
                    )?;
                }
            }

            let attempt = self.walled_plan_attempt(
                t,
                gpus,
                (rs.step as u64, rs.durable_step),
                "no schedulable GPUs (preempted, silent, or stuttering)",
                &mut AttemptAt { wal, t_hours: t },
                bus,
            );
            wal.check()?;
            if attempt.exited_degraded {
                rs.next_retry_at = None;
            }
            if let Some(delay) = attempt.retry_delay_seconds {
                let at = t + delay / 3600.0;
                rs.next_retry_at = if at <= duration { Some(at) } else { None };
            }
        }
        Ok(())
    }
}
