//! Tier-1 pins of the planner's calibrated schedules: for every
//! `Planner::sweep` candidate of GPT-2 2.5B at `M_total` 1024, micro-batch
//! 4 (the `emulator_pins` calibration), an FNV-1a digest of
//! `plan_schedule`'s per-stage op order and makespan bits, plus the bits
//! of `estimate_minibatch_time`. Any change to the Varuna schedule
//! kernel's rules, tie order or arithmetic at calibrated times moves
//! these bits. The same orders must satisfy the mini-batch-boundary
//! drain lemma the manager's live migration relies on.

use std::sync::OnceLock;

use varuna::simulator::{estimate_minibatch_time, plan_schedule, SimInput};
use varuna::{Calibration, Config, Planner, VarunaCluster};
use varuna_models::ModelZoo;
use varuna_sched::{boundary_drain_legal, OpKind};

fn calib() -> &'static Calibration {
    static CALIB: OnceLock<Calibration> = OnceLock::new();
    CALIB.get_or_init(|| {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(100))
    })
}

/// FNV-1a, folded one word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(gpus, candidates, schedule digest, estimate digest)` at each pinned
/// GPU count.
const PINS: &[(usize, usize, u64, u64)] = &[
    (24, 22, 0x450b_cb8d_f580_0619, 0x3894_4df3_8168_409e),
    (36, 34, 0x3d21_e25b_9165_55b2, 0x40fd_bdfa_1df5_49c0),
    (100, 52, 0xa41d_fdac_2703_3dc3, 0x0743_105f_297d_3793),
];

/// Every sweep candidate at `gpus` GPUs.
fn candidates(gpus: usize) -> Vec<Config> {
    let calib = calib();
    Planner::new(&calib.model, calib)
        .batch_size(1024)
        .micro_batch(4)
        .sweep(gpus)
}

/// `cfg`'s simulator input.
fn input(cfg: &Config) -> SimInput<'_> {
    SimInput {
        calib: calib(),
        assignment: &cfg.assignment,
        d: cfg.d,
        m: cfg.m,
        n_micro: cfg.n_micro,
        offload: cfg.offload,
    }
}

fn digests(gpus: usize) -> (usize, usize, u64, u64) {
    let candidates = candidates(gpus);
    let (mut schedules, mut estimates) = (Fnv::new(), Fnv::new());
    for cfg in &candidates {
        let input = input(cfg);
        let schedule = plan_schedule(&input).expect("candidate plans");
        schedules.word(schedule.per_stage.len() as u64);
        for ops in &schedule.per_stage {
            schedules.word(ops.len() as u64);
            for op in ops {
                let kind = match op.kind {
                    OpKind::Forward => 0,
                    OpKind::Recompute => 1,
                    OpKind::Backward => 2,
                };
                schedules.word(kind);
                schedules.word(op.micro as u64);
            }
        }
        schedules.word(schedule.makespan.to_bits());
        let estimate = estimate_minibatch_time(&input).expect("candidate estimates");
        estimates.word(estimate.to_bits());
    }
    (gpus, candidates.len(), schedules.0, estimates.0)
}

#[test]
fn calibrated_schedules_of_every_sweep_candidate_are_pinned() {
    let got: Vec<_> = PINS.iter().map(|&(gpus, ..)| digests(gpus)).collect();
    assert_eq!(got, PINS, "got {got:#x?}");
}

#[test]
fn every_calibrated_schedule_drains_legally_at_the_boundary() {
    for &(gpus, ..) in PINS {
        for cfg in candidates(gpus) {
            let schedule = plan_schedule(&input(&cfg)).expect("candidate plans");
            for stage in 0..schedule.p {
                assert!(
                    boundary_drain_legal(&schedule, stage),
                    "{gpus} GPUs, {}x{}: stage {stage}",
                    cfg.p,
                    cfg.d
                );
            }
        }
    }
}
