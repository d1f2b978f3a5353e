//! Tier-1 pins of the emulator's output for the planner's own workload:
//! GPT-2 2.5B, `M_total` 1024, micro-batch 4, every candidate at 24 GPUs
//! scored by `SimSearch::simulate_candidate`, plus the `OpEnd` stream of
//! one jittered mini-batch. Any change to the event loop's order of
//! events or RNG draws moves these bits.

use std::sync::OnceLock;

use varuna::{Calibration, ClusterTemplate, Planner, SimSearch, TrainingJob, VarunaCluster};
use varuna_exec::pipeline::SimOptions;
use varuna_models::ModelZoo;
use varuna_obs::{EventBus, EventKind, VecSink};

fn calib() -> &'static Calibration {
    static CALIB: OnceLock<Calibration> = OnceLock::new();
    CALIB.get_or_init(|| {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(100))
    })
}

fn candidates() -> Vec<varuna::Config> {
    let calib = calib();
    Planner::new(&calib.model, calib)
        .batch_size(1024)
        .micro_batch(4)
        .sweep(24)
}

/// `(p, d, total_time bits)` of every candidate at 24 GPUs.
const CANDIDATE_BITS: &[(usize, usize, u64)] = &[
    (3, 8, 0x4038c6d7d85b07ea),
    (4, 6, 0x4038d64504073b55),
    (5, 4, 0x403dbeed8ed325f8),
    (6, 4, 0x40390c1d3bdb4c00),
    (7, 3, 0x403cdb60090a80b3),
    (8, 3, 0x403991c597e50f9f),
    (9, 2, 0x403fda9c46cc380a),
    (10, 2, 0x403f8f21a77edeb2),
    (11, 2, 0x403aeae3862986cc),
    (12, 2, 0x403ae174e4000d12),
    (13, 1, 0x40490ef9d5907072),
    (14, 1, 0x40445d9a6507cf64),
    (15, 1, 0x4044641be423ce92),
    (16, 1, 0x40446216fb76519a),
    (17, 1, 0x404468a1e2e9c317),
    (18, 1, 0x40434ab46c082d2a),
    (19, 1, 0x403fa9a6a1cc3e81),
    (20, 1, 0x403fe16d7d6a1523),
    (21, 1, 0x403fa681904cc91d),
    (22, 1, 0x403fb98e63773e2a),
    (23, 1, 0x403fb3c4d4b5e7c5),
    (24, 1, 0x403fc3f953255bb8),
];

/// FNV-1a digest of the `OpEnd` events of the 6x4 candidate's mini-batch
/// under the default compute jitter, seed 11.
const JITTERED_OPEND_DIGEST: u64 = 0xd9f7_cbef_d14f_b11b;

#[test]
fn simulated_candidates_at_24_gpus_are_pinned() {
    let calib = calib();
    let template = ClusterTemplate::from_calibration(calib);
    let got: Vec<(usize, usize, u64)> = candidates()
        .iter()
        .map(|cfg| {
            let t =
                SimSearch::simulate_candidate(calib, template, cfg).expect("candidate emulates");
            (cfg.p, cfg.d, t.to_bits())
        })
        .collect();
    assert_eq!(got, CANDIDATE_BITS, "got {got:#x?}");
}

#[test]
fn a_jittered_opend_stream_is_pinned() {
    let calib = calib();
    let template = ClusterTemplate::from_calibration(calib);
    let cfg = candidates()
        .into_iter()
        .find(|c| (c.p, c.d) == (6, 4))
        .expect("a 6x4 candidate at 24 GPUs");
    let job = TrainingJob::build(calib, &template.build(cfg.gpus_used()), cfg).expect("job builds");
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    let opts = SimOptions {
        seed: 11,
        ..SimOptions::default()
    };
    job.run_minibatch_on_bus(&opts, &mut bus)
        .expect("mini-batch completes");
    let ends: Vec<_> = sink
        .take()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::OpEnd { .. }))
        .collect();
    assert!(ends.len() > 1000, "only {} ops", ends.len());
    let digest = varuna_chaos::digest_events(&ends);
    assert_eq!(digest, JITTERED_OPEND_DIGEST, "got {digest:#018x}");
}
