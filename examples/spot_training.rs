//! Spot-VM training under preemption: a 24-hour morphing timeline.
//!
//! Generates a seeded spot-market trace (VMs granted and preempted as
//! background demand waxes and wanes), replays it through the Varuna
//! manager, and prints the resulting timeline — the workload of the
//! paper's Figure 8.
//!
//! ```console
//! $ cargo run --release --example spot_training
//! ```

use varuna::manager::{Manager, TimelineEvent};
use varuna::prelude::*;
use varuna_cluster::trace::ClusterTrace;

fn main() {
    let model = ModelZoo::gpt2_2_5b();
    let cluster = VarunaCluster::commodity_1gpu(160);
    let calib = Calibration::profile(&model, &cluster);

    // A 24-hour trace: the job greedily wants 160 1-GPU spot VMs from a
    // contended 40-host (160-slot) pool, so capacity genuinely swings with
    // the diurnal background load.
    let trace = ClusterTrace::generate_spot_1gpu(40, 160, 24.0, 10.0, 2024);
    println!(
        "trace: {} events over {:.0}h, {} preemptions",
        trace.events.len(),
        trace.duration_hours,
        trace.preemptions()
    );

    let mut mgr = Manager::new(&calib, 8192, 4);
    let timeline = mgr
        .replay(&trace)
        .expect("2.5B always fits the surviving GPUs");

    println!(
        "{:>7} {:>5} {:>8} {:>9} {:>12} event",
        "t(h)", "GPUs", "PxD", "ex/s", "ex/s/GPU"
    );
    for p in &timeline {
        let tag = match &p.event {
            TimelineEvent::Morph { p, d } => format!("morph -> {p}x{d}"),
            TimelineEvent::Replacement => "p (replaced)".to_string(),
            TimelineEvent::Checkpoint => "checkpoint".to_string(),
        };
        println!(
            "{:>7.2} {:>5} {:>8} {:>9.1} {:>12.2} {}",
            p.t_hours,
            p.gpus_held,
            format!("{}x{}", p.p, p.d),
            p.ex_per_sec,
            p.ex_per_sec_per_gpu,
            tag
        );
    }

    let morphs = timeline
        .iter()
        .filter(|p| matches!(p.event, TimelineEvent::Morph { .. }))
        .count();
    let tput: Vec<f64> = timeline.iter().map(|p| p.ex_per_sec).collect();
    let per_gpu: Vec<f64> = timeline.iter().map(|p| p.ex_per_sec_per_gpu).collect();
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::MIN, f64::max) / v.iter().cloned().fold(f64::MAX, f64::min)
    };
    println!(
        "\nsummary: {} morphs; total throughput varies {:.1}x while per-GPU varies only {:.2}x",
        morphs,
        spread(&tput),
        spread(&per_gpu)
    );
}
