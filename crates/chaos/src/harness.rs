//! One-call chaos runs: inject, replay, verify, digest.

use serde::{Deserialize, Serialize};
use varuna::{Calibration, Manager, ManagerState, ManagerWal, WalRecord};
use varuna_cluster::trace::ClusterTrace;
use varuna_obs::{
    profile, Event, EventBus, EventKind, ProfileReport, RingBufferSink, Source, StreamConfig,
    StreamSink, VecSink,
};

use crate::config::{ChaosConfig, ChaosError};
use crate::fault::{FaultKind, InjectedFault};
use crate::inject::ChaosInjector;
use crate::verify::check_invariants;

/// The verdict of one seeded chaos run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosRun {
    /// The seed that produced this run.
    pub seed: u64,
    /// Every fault the injector scheduled.
    pub faults: Vec<InjectedFault>,
    /// Events the replay emitted (faults + recovery + training markers).
    pub event_count: usize,
    /// Invariant violations found in the stream (empty = clean).
    pub violations: Vec<String>,
    /// FNV-1a digest of the full event stream: two runs of the same seed
    /// must agree byte-for-byte.
    pub digest: u64,
    /// Reconfigurations performed.
    pub morphs: usize,
    /// Times the manager fell into its Degraded retry loop.
    pub degraded_entries: usize,
    /// Total minibatches explicitly priced as lost.
    pub lost_minibatches: u64,
    /// Whether the manager finished the trace Running or Degraded.
    pub ended_degraded: bool,
    /// Time-attribution profile of the replay stream, attached only when
    /// an invariant was violated so the fault's cost is visible in the
    /// failure report.
    pub profile: Option<ProfileReport>,
    /// The flight recorder's last events (newest last), drained only on
    /// an invariant violation — the tail of the stream that led up to it.
    pub flight_recorder: Vec<Event>,
}

/// Ring-buffer capacity of the always-on flight recorder: enough tail to
/// see the episode leading into a violation without retaining the full
/// multi-thousand-event stream in failure artifacts.
pub const FLIGHT_RECORDER_EVENTS: usize = 256;

impl ChaosRun {
    /// Whether the run upheld every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the failure artifacts for a dirty run: the violations, the
    /// downtime accounting from the attached profile, and the flight
    /// recorder's tail, one readable block for CI logs / artifact files.
    /// Empty for a clean run.
    pub fn failure_artifacts(&self) -> String {
        if self.is_clean() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "chaos seed {} FAILED: {} violation(s), digest {:016x}\n",
            self.seed,
            self.violations.len(),
            self.digest
        ));
        for v in &self.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        if let Some(p) = &self.profile {
            let dt = &p.downtime;
            out.push_str(&format!(
                "profile: makespan {:.1}s, useful {:.1}s, degraded {:.1}s, \
                 restarts {:.1}s, ckpt writes {:.1}s, lost work {:.1}s \
                 ({} morphs, {} checkpoints, {} preemptions, {} faults)\n",
                p.makespan,
                dt.useful_seconds,
                dt.degraded_seconds,
                dt.morph_restart_seconds,
                dt.checkpoint_write_seconds,
                dt.lost_work_seconds,
                dt.morphs,
                dt.checkpoints,
                dt.preemptions,
                dt.faults_injected,
            ));
        }
        out.push_str(&format!(
            "flight recorder (last {} events):\n",
            self.flight_recorder.len()
        ));
        for e in &self.flight_recorder {
            out.push_str(&format!("  [{:>12.3}s] {:?}\n", e.t_sim, e.kind));
        }
        out
    }
}

/// Builds the manager every chaos experiment drives: the paper's
/// 8192-minibatch job at micro-batch 4 with fallback enabled, switched to
/// the zero-downtime policy (delta checkpoints, overlapped writes, live
/// migration) when the configuration asks for it.
fn build_manager<'a>(calib: &'a Calibration, cfg: &ChaosConfig) -> Manager<'a> {
    let mgr = Manager::new(calib, 8192, 4).with_fallback();
    if cfg.zero_downtime {
        mgr.with_zero_downtime()
    } else {
        mgr
    }
}

/// FNV-1a over the debug rendering of each event: a cheap, dependency-free
/// fingerprint that changes if any field of any event changes.
pub fn digest_events(events: &[Event]) -> u64 {
    digest_iter(events)
}

/// FNV-1a state that hashes text as it is written, so an event's debug
/// rendering is streamed into the digest without building a `String`.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest_iter<'a>(events: impl IntoIterator<Item = &'a Event>) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for e in events {
        write!(h, "{e:?}").expect("hashing never fails");
    }
    h.0
}

/// Runs one full chaos experiment: perturbs `base` with `cfg`, replays it
/// through a fallback-enabled [`Manager`] (the paper's 8192-minibatch job
/// at micro-batch 4), checks the event stream against
/// [`check_invariants`], and fingerprints the stream.
///
/// A [`StreamSink`] rides the same bus. Its report must equal
/// [`profile()`] of the captured stream with zero stream-counter
/// violations; `profile` is the same engine sealed once, so this checks
/// that the live sink saw every event, in order, without anomaly.
///
/// # Errors
///
/// Returns [`ChaosError::InvalidConfig`] for a bad configuration and
/// [`ChaosError::Replay`] if the manager rejects the perturbed trace
/// (which itself would indicate an injector bug).
pub fn run_chaos(
    calib: &Calibration,
    base: &ClusterTrace,
    cfg: &ChaosConfig,
) -> Result<ChaosRun, ChaosError> {
    let injector = ChaosInjector::new(cfg.clone())?;
    let sink = VecSink::new();
    let recorder = RingBufferSink::new(FLIGHT_RECORDER_EVENTS);
    let live = StreamSink::new(StreamConfig::default());
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    bus.add_sink(Box::new(recorder.clone()));
    bus.add_sink(Box::new(live.clone()));
    let (trace, faults) = injector.perturb_observed(base, &mut bus);
    let mut mgr = build_manager(calib, cfg);
    mgr.replay_on_bus(&trace, &mut bus)
        .map_err(|e| ChaosError::Replay(e.to_string()))?;
    let events = sink.take();

    // The injector reports its schedule up front, before the replay
    // starts, so the two sub-streams are each time-ordered but the
    // concatenation is not; verify them separately.
    let (chaos_events, replay_events): (Vec<Event>, Vec<Event>) = events
        .iter()
        .cloned()
        .partition(|e| e.source == varuna_obs::Source::Chaos);
    let mut violations = check_invariants(&replay_events);
    for w in chaos_events.windows(2) {
        if w[1].t_sim < w[0].t_sim {
            violations.push(format!(
                "chaos events out of order: {} after {}",
                w[1].t_sim, w[0].t_sim
            ));
        }
    }

    // The always-on streaming profiler must account for the faulted run
    // exactly as `profile()` of the capture does: any byte of divergence
    // (a lost or reordered delivery) or internal anomaly is itself an
    // invariant violation.
    let streamed = live.take_partial();
    let stream_anomalies = streamed.counters().violations();
    if stream_anomalies > 0 {
        violations.push(format!(
            "streaming profiler flagged {stream_anomalies} anomalie(s): {:?}",
            streamed.counters()
        ));
    }
    if streamed.into_report().to_json() != profile(&events).to_json() {
        violations.push("streamed profile diverges from post-hoc".to_string());
    }

    let morphs = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Morph { .. }))
        .count();
    let degraded_entries = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DegradedEnter { .. }))
        .count();
    let lost_minibatches = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LostWork { minibatches, .. } => Some(minibatches),
            _ => None,
        })
        .sum();
    // Failure artifacts: a dirty run ships its time-attribution profile
    // and the flight recorder's tail; clean runs stay lean.
    let (profile, flight_recorder) = if violations.is_empty() {
        (None, Vec::new())
    } else {
        (Some(profile(&replay_events)), recorder.snapshot())
    };
    Ok(ChaosRun {
        seed: cfg.seed,
        digest: digest_events(&events),
        event_count: events.len(),
        faults,
        violations,
        morphs,
        degraded_entries,
        lost_minibatches,
        ended_degraded: mgr.state() == ManagerState::Degraded,
        profile,
        flight_recorder,
    })
}

/// FNV-1a digest of the control-decision stream only:
/// [`Source::Recovery`]-tagged events (the replay announcements) are
/// excluded, so an uninterrupted run and a kill-and-recover run of the
/// same trace can be compared for the kill-anywhere invariant.
pub fn digest_control_events(events: &[Event]) -> u64 {
    digest_iter(events.iter().filter(|e| e.source != Source::Recovery))
}

/// The verdict of one control-plane kill-and-recover experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryRun {
    /// The seed that produced the underlying chaos run.
    pub seed: u64,
    /// Clean WAL frames surviving the kill.
    pub boundary: usize,
    /// Records in the uninterrupted run's complete log.
    pub wal_records: usize,
    /// Whether the kill additionally tore frame `boundary` mid-write.
    pub torn: bool,
    /// Whether recovery detected (and truncated) a torn tail.
    pub torn_detected: bool,
    /// Bytes the torn-tail truncation dropped at load.
    pub dropped_bytes: u64,
    /// Records replayed from the surviving log prefix.
    pub replayed_records: usize,
    /// Modeled replay cost priced as downtime, seconds.
    pub replay_seconds: f64,
    /// Control-event digest of the uninterrupted run (the oracle).
    pub digest_expected: u64,
    /// Control-event digest of the recovered run.
    pub digest_recovered: u64,
    /// Whether the recovered run's final WAL bytes equal the
    /// uninterrupted log byte-for-byte.
    pub wal_bytes_identical: bool,
    /// Invariant violations (empty = the kill-anywhere invariant held).
    pub violations: Vec<String>,
}

impl RecoveryRun {
    /// Whether the kill-anywhere invariant held for this kill point.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders a readable failure block for CI logs / artifact files.
    /// Empty for a clean run.
    pub fn failure_artifacts(&self) -> String {
        if self.is_clean() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "recovery seed {} FAILED at boundary {}/{} (torn: {}): {} violation(s)\n",
            self.seed,
            self.boundary,
            self.wal_records,
            self.torn,
            self.violations.len()
        ));
        for v in &self.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        out.push_str(&format!(
            "digests: expected {:016x}, recovered {:016x}; replayed {} records \
             ({:.3}s), dropped {} torn bytes, wal bytes identical: {}\n",
            self.digest_expected,
            self.digest_recovered,
            self.replayed_records,
            self.replay_seconds,
            self.dropped_bytes,
            self.wal_bytes_identical,
        ));
        out
    }
}

/// One uninterrupted write-ahead-logged chaos run, cached so that many
/// kill points can be probed against it without re-running the oracle.
///
/// `new` perturbs the base trace, drives the paper's 8192-minibatch job
/// through [`Manager::replay_walled`] once, and captures the resulting
/// control-event digest and complete WAL image. [`RecoveryHarness::recover_at`]
/// then simulates a kill at any record boundary — optionally tearing the
/// next frame mid-write — recovers a fresh manager from the surviving
/// bytes, and checks the kill-anywhere invariant: byte-identical control
/// digest and byte-identical final WAL.
pub struct RecoveryHarness<'a> {
    calib: &'a Calibration,
    cfg: ChaosConfig,
    trace: ClusterTrace,
    faults: Vec<InjectedFault>,
    seed: u64,
    wal: ManagerWal,
    reference_digest: u64,
    reference_bytes: Vec<u8>,
}

impl<'a> RecoveryHarness<'a> {
    /// Runs the uninterrupted oracle for `(calib, base, cfg)`.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::InvalidConfig`] for a bad configuration and
    /// [`ChaosError::Replay`] if the manager rejects the perturbed trace.
    pub fn new(
        calib: &'a Calibration,
        base: &ClusterTrace,
        cfg: &ChaosConfig,
    ) -> Result<Self, ChaosError> {
        let injector = ChaosInjector::new(cfg.clone())?;
        let (trace, faults) = injector.perturb(base);
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        let mut wal = ManagerWal::new();
        let mut mgr = build_manager(calib, cfg);
        mgr.replay_walled(&trace, &mut bus, &mut wal)
            .map_err(|e| ChaosError::Replay(e.to_string()))?;
        let reference_digest = digest_control_events(&sink.take());
        let reference_bytes = wal.to_bytes();
        Ok(RecoveryHarness {
            calib,
            cfg: cfg.clone(),
            trace,
            faults,
            seed: cfg.seed,
            wal,
            reference_digest,
            reference_bytes,
        })
    }

    /// Records in the uninterrupted run's complete log; kill boundaries
    /// range over `0..=wal_records()`.
    pub fn wal_records(&self) -> usize {
        self.wal.len()
    }

    /// The faults the injector scheduled for the underlying run.
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// Indices of WAL records that committed a *live migration* — a
    /// same-shape replacement priced as `migration_seconds` instead of a
    /// restart. Tearing one of these frames mid-write is the chaos
    /// suite's "killed during migration" fault: the control plane dies
    /// while the migration decision is being logged, and recovery must
    /// still reproduce the uninterrupted run byte-for-byte.
    pub fn migration_boundaries(&self) -> Vec<usize> {
        self.wal
            .records()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                WalRecord::Morph { decision, .. } if decision.migration_seconds > 0.0 => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Decision time (hours) of WAL record `idx`.
    pub fn record_t_hours(&self, idx: usize) -> f64 {
        self.wal.records()[idx].t_hours()
    }

    /// Kills the run after `boundary` clean frames (`torn` additionally
    /// leaves half of frame `boundary` on disk), recovers a fresh manager
    /// from the surviving bytes, and checks the kill-anywhere invariant.
    ///
    /// `boundary` is clamped to the log length; `torn` is ignored when no
    /// frame follows the boundary (nothing was mid-write).
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Replay`] if the surviving bytes fail to load
    /// or the recovered manager rejects the trace — both would be harness
    /// bugs, not invariant violations.
    pub fn recover_at(&self, boundary: usize, torn: bool) -> Result<RecoveryRun, ChaosError> {
        let n = self.wal.len();
        let boundary = boundary.min(n);
        let torn = torn && boundary < n;
        let bytes = if torn {
            self.wal.torn_bytes(boundary, 0.5)
        } else {
            self.wal.truncated_bytes(boundary)
        };
        let mut wal = ManagerWal::from_bytes(&bytes)
            .map_err(|e| ChaosError::Replay(format!("surviving WAL bytes failed to load: {e}")))?;
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        let mut mgr = build_manager(self.calib, &self.cfg);
        let report = mgr
            .recover_on_bus(&self.trace, &mut bus, &mut wal)
            .map_err(|e| ChaosError::Replay(e.to_string()))?;
        let events = sink.take();
        let digest_recovered = digest_control_events(&events);

        let mut violations = Vec::new();
        if digest_recovered != self.reference_digest {
            violations.push(format!(
                "recovered control digest {digest_recovered:016x} != uninterrupted \
                 {:016x} (killed at boundary {boundary}/{n}, torn {torn})",
                self.reference_digest
            ));
        }
        let control: Vec<Event> = events
            .iter()
            .filter(|e| e.source != Source::Recovery)
            .cloned()
            .collect();
        for v in check_invariants(&control) {
            violations.push(format!("recovered stream: {v}"));
        }
        if torn && report.torn.is_none() {
            violations.push("kill tore the final frame but recovery detected no torn tail".into());
        }
        if !torn && report.torn.is_some() {
            violations.push(format!(
                "clean kill at boundary {boundary} but recovery reported a torn tail: {:?}",
                report.torn
            ));
        }
        let final_bytes = wal.to_bytes();
        let wal_bytes_identical = final_bytes == self.reference_bytes;
        if !wal_bytes_identical {
            violations.push(format!(
                "recovered WAL ({} bytes) diverges from the uninterrupted log ({} bytes)",
                final_bytes.len(),
                self.reference_bytes.len()
            ));
        }
        Ok(RecoveryRun {
            seed: self.seed,
            boundary,
            wal_records: n,
            torn,
            torn_detected: report.torn.is_some(),
            dropped_bytes: report.dropped_bytes,
            replayed_records: report.replayed_records,
            replay_seconds: report.replay_seconds,
            digest_expected: self.reference_digest,
            digest_recovered,
            wal_bytes_identical,
            violations,
        })
    }
}

/// One kill-and-recover experiment at an explicit boundary: builds the
/// [`RecoveryHarness`] oracle and probes a single kill point.
///
/// # Errors
///
/// Propagates [`RecoveryHarness::new`] / [`RecoveryHarness::recover_at`]
/// errors.
pub fn run_recovery_at(
    calib: &Calibration,
    base: &ClusterTrace,
    cfg: &ChaosConfig,
    boundary: usize,
    torn: bool,
) -> Result<RecoveryRun, ChaosError> {
    RecoveryHarness::new(calib, base, cfg)?.recover_at(boundary, torn)
}

/// Runs the kill the injector planned for `cfg`
/// ([`ChaosInjector::crash_plan`]): the plan's boundary fraction is mapped
/// onto the concrete log and the recovered run is checked against the
/// uninterrupted oracle. A configuration that plans no kill degenerates to
/// a full-prefix replay check — recovering from the complete log must
/// still reproduce the run exactly.
///
/// # Errors
///
/// Same contract as [`run_recovery_at`].
pub fn run_chaos_recovery(
    calib: &Calibration,
    base: &ClusterTrace,
    cfg: &ChaosConfig,
) -> Result<RecoveryRun, ChaosError> {
    let plan = ChaosInjector::new(cfg.clone())?.crash_plan();
    let harness = RecoveryHarness::new(calib, base, cfg)?;
    let n = harness.wal_records();
    match plan {
        Some(p) => {
            let boundary = ((p.boundary_fraction * (n + 1) as f64) as usize).min(n);
            harness.recover_at(boundary, p.torn)
        }
        None => harness.recover_at(n, false),
    }
}

/// Runs the injector's "killed during migration" plan, if it rolled one:
/// the control plane is killed while a live-migration Morph frame is
/// mid-write (the frame is torn), a fresh manager recovers from the
/// surviving prefix, and the kill-anywhere invariant is checked. Returns
/// `Ok(None)` when the configuration disables migration kills, the roll
/// came up clean, or the run performed no live migrations (e.g. the
/// zero-downtime policy is off).
///
/// # Errors
///
/// Same contract as [`run_recovery_at`].
pub fn run_migration_kill_recovery(
    calib: &Calibration,
    base: &ClusterTrace,
    cfg: &ChaosConfig,
) -> Result<Option<(InjectedFault, RecoveryRun)>, ChaosError> {
    let Some(pick) = ChaosInjector::new(cfg.clone())?.migration_kill() else {
        return Ok(None);
    };
    let harness = RecoveryHarness::new(calib, base, cfg)?;
    let migrations = harness.migration_boundaries();
    if migrations.is_empty() {
        return Ok(None);
    }
    let idx = migrations[((pick * migrations.len() as f64) as usize).min(migrations.len() - 1)];
    let fault = InjectedFault {
        time_hours: harness.record_t_hours(idx),
        vm: u64::MAX,
        fault: FaultKind::KilledDuringMigration,
    };
    Ok(Some((fault, harness.recover_at(idx, true)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = Event::manager(1.0, EventKind::Preemption { vm: 1 });
        let b = Event::manager(2.0, EventKind::Preemption { vm: 2 });
        let d1 = digest_events(&[a.clone(), b.clone()]);
        let d2 = digest_events(&[b, a]);
        assert_ne!(d1, d2, "order must matter");
        assert_ne!(
            d1,
            digest_events(&[Event::manager(1.0, EventKind::Preemption { vm: 9 })]),
            "content must matter"
        );
        assert_eq!(digest_events(&[]), digest_events(&[]));
    }

    #[test]
    fn control_digest_ignores_recovery_events() {
        let a = Event::manager(1.0, EventKind::Preemption { vm: 1 });
        let r = Event::recovery(
            5.0,
            EventKind::RecoveryReplay {
                wal_records: 3,
                torn: false,
                dropped_bytes: 0,
                replay_seconds: 0.006,
            },
        );
        assert_eq!(
            digest_control_events(&[r.clone(), a.clone()]),
            digest_control_events(std::slice::from_ref(&a)),
            "recovery-sourced events must not affect the control digest"
        );
        assert_ne!(digest_events(&[r, a.clone()]), digest_events(&[a]));
    }
}
