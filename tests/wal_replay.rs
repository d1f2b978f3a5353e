//! The manager's write-ahead log is the whole record of its control
//! decisions. The logged control stream is exactly the image of the log
//! under `WalRecord::event`, a kill-and-recover mid-log reproduces the run
//! exactly, and a log that belongs to another run is a typed
//! `WalError::Diverged` — never a panic, never a silently skipped record.

use std::sync::OnceLock;

use varuna::calibrate::Calibration;
use varuna::manager::Manager;
use varuna::{ManagerWal, VarunaCluster, VarunaError, WalError, WalRecord};
use varuna_chaos::{ChaosConfig, ChaosInjector};
use varuna_cluster::trace::ClusterTrace;
use varuna_models::ModelZoo;
use varuna_obs::{Event, EventBus, EventKind, Source, VecSink};

fn calib() -> &'static Calibration {
    static CALIB: OnceLock<Calibration> = OnceLock::new();
    CALIB.get_or_init(|| {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(160))
    })
}

fn manager(zero_downtime: bool) -> Manager<'static> {
    let mgr = Manager::new(calib(), 8192, 4).with_fallback();
    if zero_downtime {
        mgr.with_zero_downtime()
    } else {
        mgr
    }
}

/// A spot trace long enough for periodic checkpoints and several morphs.
fn spot_trace() -> &'static ClusterTrace {
    static TRACE: OnceLock<ClusterTrace> = OnceLock::new();
    TRACE.get_or_init(|| ClusterTrace::generate_spot_1gpu(24, 40, 3.0, 10.0, 3))
}

/// Replays `trace` against `wal` (recovering when it holds records),
/// returning every event the run emitted.
fn run(
    mut mgr: Manager<'_>,
    trace: &ClusterTrace,
    wal: &mut ManagerWal,
) -> Result<Vec<Event>, VarunaError> {
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    mgr.recover_on_bus(trace, &mut bus, wal)?;
    Ok(sink.take())
}

/// The events the log accounts for: manager-sourced, minus the
/// preemption notices the manager observes but does not decide.
fn logged(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.source == Source::Manager && !matches!(e.kind, EventKind::Preemption { .. }))
        .cloned()
        .collect()
}

fn without_recovery(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.source != Source::Recovery)
        .cloned()
        .collect()
}

/// A log holding exactly `records`, round-tripped through its bytes.
fn reloaded(records: &[WalRecord]) -> ManagerWal {
    let mut wal = ManagerWal::new();
    for r in records {
        wal.append(r.clone());
    }
    ManagerWal::from_bytes(&wal.to_bytes()).expect("a well-formed log")
}

#[test]
fn control_stream_is_the_image_of_the_log() {
    let mut traces = vec![spot_trace().clone()];
    for seed in 0..2 {
        let (chaotic, _) = ChaosInjector::new(ChaosConfig::zero_downtime(seed))
            .expect("valid chaos config")
            .perturb(spot_trace());
        traces.push(chaotic);
    }
    for (i, trace) in traces.iter().enumerate() {
        for zero_downtime in [false, true] {
            let case = format!("trace {i}, zero_downtime {zero_downtime}");
            let mut wal = ManagerWal::new();
            let events = run(manager(zero_downtime), trace, &mut wal).expect(&case);
            assert!(wal.len() > 4, "{case}: the run must log decisions");
            let image: Vec<Event> = wal.records().iter().map(WalRecord::event).collect();
            assert_eq!(logged(&events), image, "{case}");

            // Killed mid-log and recovered: the same stream, the same log.
            let mut survivor = ManagerWal::from_bytes(&wal.truncated_bytes(wal.len() / 2))
                .expect("a clean prefix");
            let recovered = run(manager(zero_downtime), trace, &mut survivor).expect(&case);
            assert_eq!(without_recovery(&recovered), events, "{case}");
            assert_eq!(survivor.to_bytes(), wal.to_bytes(), "{case}");
        }
    }
}

/// The uninterrupted run's log over the spot trace.
fn reference_log() -> Vec<WalRecord> {
    let mut wal = ManagerWal::new();
    run(manager(false), spot_trace(), &mut wal).expect("reference run");
    wal.records().to_vec()
}

fn diverged_at(records: &[WalRecord]) -> VarunaError {
    let mut wal = reloaded(records);
    let err =
        run(manager(false), spot_trace(), &mut wal).expect_err("a foreign log must not recover");
    assert_eq!(
        wal.len(),
        records.len(),
        "a diverged log is never appended to"
    );
    err
}

fn diverged(seq: usize) -> VarunaError {
    VarunaError::Wal(WalError::Diverged { seq: seq as u64 })
}

#[test]
fn a_foreign_record_where_a_checkpoint_is_due_is_a_divergence() {
    let log = reference_log();
    let k = log
        .iter()
        .position(|r| {
            matches!(
                r,
                WalRecord::Checkpoint {
                    proactive: false,
                    ..
                }
            )
        })
        .expect("a periodic checkpoint");
    let mut crafted = log[..k].to_vec();
    crafted.push(WalRecord::VmExcluded {
        t_hours: log[k].t_hours(),
        vm: 0,
        consecutive_misses: 3,
    });
    assert_eq!(diverged_at(&crafted), diverged(k));
}

#[test]
fn a_foreign_record_ahead_of_the_first_plan_attempt_is_a_divergence() {
    let crafted = [WalRecord::VmReadmitted {
        t_hours: 0.0,
        vm: 7,
    }];
    assert_eq!(diverged_at(&crafted), diverged(0));
}

#[test]
fn a_record_logged_at_another_time_is_a_divergence() {
    let log = reference_log();
    let shifted = |k: usize| {
        let mut crafted = log.clone();
        match &mut crafted[k] {
            WalRecord::Morph { t_hours, .. } | WalRecord::Checkpoint { t_hours, .. } => {
                *t_hours += 0.5
            }
            other => panic!("unexpected record {other:?}"),
        }
        crafted
    };
    // A plan-attempt record (replayed through the attempt's own view)...
    let m = log
        .iter()
        .position(|r| matches!(r, WalRecord::Morph { .. }))
        .expect("a morph");
    assert_eq!(diverged_at(&shifted(m)), diverged(m));
    // ...and a trace-replay decision.
    let k = log
        .iter()
        .position(|r| matches!(r, WalRecord::Checkpoint { .. }))
        .expect("a checkpoint");
    assert_eq!(diverged_at(&shifted(k)), diverged(k));
}
