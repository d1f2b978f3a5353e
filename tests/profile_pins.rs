//! Tier-1 pins of the time-attribution report: FNV-1a digests of
//! `profile(..).to_json()` over two captured streams, one per half of
//! the attribution contract.
//!
//! - A jitter-free emulator mini-batch (GPT-2 2.5B at 4x2): lanes,
//!   stages, bubbles and the critical path.
//! - A short zero-downtime spot-trace replay: downtime pricing over the
//!   manager's control-plane events.
//!
//! Any change to attribution arithmetic or summation order moves these
//! bits.

use std::sync::OnceLock;

use varuna::manager::Manager;
use varuna::{Calibration, ClusterTemplate, Planner, TrainingJob, VarunaCluster};
use varuna_cluster::trace::ClusterTrace;
use varuna_exec::pipeline::SimOptions;
use varuna_models::ModelZoo;
use varuna_obs::{profile, Event, EventBus, VecSink};

const EMULATOR_REPORT_DIGEST: u64 = 0xd4bf_bafd_1841_2024;
const SPOT_REPORT_DIGEST: u64 = 0x09fd_a525_ce05_95e8;

fn calib() -> &'static Calibration {
    static CALIB: OnceLock<Calibration> = OnceLock::new();
    CALIB.get_or_init(|| {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(160))
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn report_digest(events: &[Event]) -> u64 {
    fnv1a(profile(events).to_json().as_bytes())
}

#[test]
fn an_emulator_minibatch_report_is_pinned() {
    let calib = calib();
    let template = ClusterTemplate::from_calibration(calib);
    let cfg = Planner::new(&calib.model, calib)
        .batch_size(64)
        .micro_batch(4)
        .sweep(8)
        .into_iter()
        .find(|c| (c.p, c.d) == (4, 2))
        .expect("a 4x2 candidate at 8 GPUs");
    let job = TrainingJob::build(calib, &template.build(cfg.gpus_used()), cfg).expect("job builds");
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    job.run_minibatch_on_bus(&SimOptions::deterministic(), &mut bus)
        .expect("mini-batch completes");
    let events = sink.take();
    assert!(events.len() > 50, "only {} events", events.len());
    let digest = report_digest(&events);
    assert_eq!(digest, EMULATOR_REPORT_DIGEST, "got {digest:#018x}");
}

#[test]
fn a_zero_downtime_spot_replay_report_is_pinned() {
    let trace = ClusterTrace::generate_spot_1gpu(24, 40, 3.0, 10.0, 3);
    let mut mgr = Manager::new(calib(), 8192, 4)
        .with_fallback()
        .with_zero_downtime();
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    mgr.replay_on_bus(&trace, &mut bus).expect("trace replays");
    let events = sink.take();
    let report = profile(&events);
    assert!(report.downtime.morphs > 0, "the trace must morph");
    let digest = report_digest(&events);
    assert_eq!(digest, SPOT_REPORT_DIGEST, "got {digest:#018x}");
}
