//! Pins the bytes of a manager write-ahead log that holds every
//! `WalRecord` variant: a zero-downtime chaos run's log, followed by one
//! hand-built record of each variant. The frame layout, the JSON payload
//! of every record shape and the checksums all feed the digest, so a
//! codec change that moves one byte of any frame fails here.

use varuna::morph::MorphDecision;
use varuna::wal::{fnv1a, Wal};
use varuna::{
    Calibration, CheckpointKind, Config, FallbackLevel, Manager, ManagerWal, PartialWrite,
    VarunaCluster, WalRecord,
};
use varuna_chaos::{ChaosConfig, ChaosInjector};
use varuna_cluster::trace::ClusterTrace;
use varuna_models::ModelZoo;
use varuna_obs::EventBus;

/// The variant's name; the match is exhaustive, so a new variant must be
/// added to [`hand_built`] before this test compiles.
fn variant(r: &WalRecord) -> &'static str {
    match r {
        WalRecord::Checkpoint { .. } => "Checkpoint",
        WalRecord::DeltaFlush { .. } => "DeltaFlush",
        WalRecord::CheckpointFailed { .. } => "CheckpointFailed",
        WalRecord::CheckpointTorn { .. } => "CheckpointTorn",
        WalRecord::CheckpointFallback { .. } => "CheckpointFallback",
        WalRecord::VmExcluded { .. } => "VmExcluded",
        WalRecord::VmReadmitted { .. } => "VmReadmitted",
        WalRecord::DegradedEnter { .. } => "DegradedEnter",
        WalRecord::DegradedExit { .. } => "DegradedExit",
        WalRecord::MorphRetry { .. } => "MorphRetry",
        WalRecord::LostWork { .. } => "LostWork",
        WalRecord::PlanSearch { .. } => "PlanSearch",
        WalRecord::Morph { .. } => "Morph",
    }
}

/// One record of each variant, with values that exercise the writer:
/// fractional, integral, tiny and huge floats, escapes in strings, every
/// `CheckpointKind` and `FallbackLevel` shape and an empty assignment.
fn hand_built() -> Vec<WalRecord> {
    let config = |assignment: Vec<(usize, usize)>, offload| Config {
        p: assignment.len(),
        d: 3,
        m: 2,
        n_micro: 11,
        assignment,
        offload,
        est_minibatch_time: 1.0 / 3.0,
        examples: 66,
    };
    let morph = |t_hours, decision| WalRecord::Morph {
        t_hours,
        gpus_held: 12,
        decision,
    };
    vec![
        WalRecord::Checkpoint {
            t_hours: 0.25,
            step: u64::MAX,
            gpus_held: 8,
            gpus_used: 6,
            p: 3,
            d: 2,
            examples_per_sec: 1e21,
            examples_per_sec_per_gpu: 1e-7,
            write_seconds: 2.0,
            overlapped_seconds: 0.0,
            kind: CheckpointKind::Full,
            proactive: true,
        },
        WalRecord::Checkpoint {
            t_hours: 0.5,
            step: 40,
            gpus_held: 8,
            gpus_used: 8,
            p: 4,
            d: 2,
            examples_per_sec: 123.456,
            examples_per_sec_per_gpu: 15.432,
            write_seconds: 0.1,
            overlapped_seconds: 1.9,
            kind: CheckpointKind::Delta { base_step: 32 },
            proactive: false,
        },
        WalRecord::DeltaFlush {
            t_hours: 0.75,
            step: 41,
            base_step: 32,
            gpus_held: 8,
            gpus_used: 8,
            p: 4,
            d: 2,
            examples_per_sec: 99.5,
            examples_per_sec_per_gpu: 12.4375,
            write_seconds: 0.05,
        },
        WalRecord::CheckpointFailed {
            t_hours: 1.0,
            step: 42,
        },
        WalRecord::CheckpointTorn {
            t_hours: 1.25,
            step: 42,
            partial: PartialWrite {
                bytes_written: 17,
                bytes_expected: 4096,
            },
        },
        WalRecord::CheckpointFallback {
            t_hours: 1.5,
            from_step: 42,
            to_step: 32,
        },
        WalRecord::VmExcluded {
            t_hours: 1.75,
            vm: 9,
            consecutive_misses: 3,
        },
        WalRecord::VmReadmitted {
            t_hours: 2.0,
            vm: 9,
        },
        WalRecord::DegradedEnter {
            t_hours: 2.25,
            gpus: 1,
            reason: "no fit: \"quoted\" \\ tab\t newline\n bell\u{7} é ✓ 😀".to_string(),
        },
        WalRecord::DegradedExit {
            t_hours: 2.5,
            gpus: 6,
            paused_seconds: 900.0,
        },
        WalRecord::MorphRetry {
            t_hours: 2.75,
            attempt: 2,
            backoff_seconds: 30.0,
            gpus: 2,
        },
        WalRecord::LostWork {
            t_hours: 3.0,
            minibatches: 7,
            seconds: 84.75,
        },
        WalRecord::PlanSearch {
            t_hours: 3.25,
            candidates: 120,
            simulated: 17,
            memo_hits: 100,
            analytic_fallbacks: 3,
        },
        morph(
            3.5,
            MorphDecision {
                config: config(vec![(0, 12), (12, 24)], false),
                reconfigured: true,
                downtime: 95.5,
                restart_seconds: 60.0,
                migration_seconds: 0.0,
                fallback: FallbackLevel::None,
            },
        ),
        morph(
            3.75,
            MorphDecision {
                config: config(vec![(0, 24)], false),
                reconfigured: false,
                downtime: 12.0,
                restart_seconds: 0.0,
                migration_seconds: 12.0,
                fallback: FallbackLevel::ReducedMicroBatch(1),
            },
        ),
        morph(
            4.0,
            MorphDecision {
                config: config(Vec::new(), true),
                reconfigured: true,
                downtime: f64::NAN,
                restart_seconds: f64::INFINITY,
                migration_seconds: -0.0,
                fallback: FallbackLevel::Offload,
            },
        ),
    ]
}

/// A zero-downtime chaos run's manager log.
fn chaos_log() -> Vec<WalRecord> {
    let calib = Calibration::profile(&ModelZoo::gpt2_355m(), &VarunaCluster::commodity_1gpu(8));
    let base = ClusterTrace::generate_spot_1gpu(8, 8, 3.0, 10.0, 5);
    let cfg = ChaosConfig {
        zero_downtime: true,
        ..ChaosConfig::harsh(11)
    };
    let (trace, _) = ChaosInjector::new(cfg)
        .expect("valid config")
        .perturb(&base);
    let mut wal = ManagerWal::new();
    Manager::new(&calib, 512, 4)
        .with_fallback()
        .with_zero_downtime()
        .replay_walled(&trace, &mut EventBus::new(), &mut wal)
        .expect("chaos replay");
    wal.records().to_vec()
}

#[test]
fn a_manager_log_with_every_variant_is_pinned() {
    let mut wal: ManagerWal = Wal::new();
    let chaos = chaos_log();
    for r in chaos.iter().cloned().chain(hand_built()) {
        wal.append(r);
    }
    let names: std::collections::BTreeSet<&str> = wal.records().iter().map(variant).collect();
    assert_eq!(names.len(), 13, "{names:?}");
    let bytes = wal.to_bytes();
    assert_eq!(
        (chaos.len(), bytes.len(), fnv1a(&bytes)),
        (269, 68_540, 0x3ba6_3fa0_a143_613b),
        "manager WAL image moved"
    );
}
