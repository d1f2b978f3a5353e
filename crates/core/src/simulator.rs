//! The parametrized simulator (paper §4.4).
//!
//! A model of one mini-batch fed *only* by calibrated primitives (never by
//! the substrate's ground-truth models): per-stage compute times, mean
//! boundary-transfer latencies, allreduce costs with NIC contention,
//! tied-parameter sync, and optional optimizer-state offload. The
//! pipeline phase is `varuna-sched`'s event-driven Varuna schedule kernel
//! ([`varuna_schedule`]) run on the calibrated times; this module derives
//! its inputs and adds the sync tail. It runs in
//! microseconds-to-milliseconds per configuration — fast enough to
//! re-plan on every preemption — and Table 7 shows its estimates land
//! within ~5% of the full discrete-event emulation.

use varuna_sched::schedule::{varuna_schedule, StaticSchedule};

use crate::calibrate::Calibration;
use crate::error::VarunaError;

/// One configuration to estimate.
#[derive(Debug, Clone)]
pub struct SimInput<'a> {
    /// Calibrated primitives.
    pub calib: &'a Calibration,
    /// Stage assignment: cut-point ranges per stage.
    pub assignment: &'a [(usize, usize)],
    /// Data-parallel replicas.
    pub d: usize,
    /// Micro-batch size.
    pub m: usize,
    /// Micro-batches per replica.
    pub n_micro: usize,
    /// Whether optimizer state is offloaded to CPU.
    pub offload: bool,
}

/// Estimates the wall-clock time of one mini-batch.
///
/// # Errors
///
/// Returns [`VarunaError::OutOfMemory`] if any stage cannot fit.
pub fn estimate_minibatch_time(input: &SimInput<'_>) -> Result<f64, VarunaError> {
    let p = input.assignment.len();
    if p == 0 || input.d == 0 || input.n_micro == 0 {
        return Err(VarunaError::InvalidConfig(
            "empty configuration".to_string(),
        ));
    }
    let calib = input.calib;
    let gpn = calib.gpus_per_node;
    let (schedule, finish) = calibrated_pipeline(input)?;

    // Sync tail: per-stage data-parallel allreduce (+ tied sync on the
    // boundary stages, + offload), overlapping across stages.
    let in_flight = gpn.min(p).max(1);
    let mut total = schedule.makespan;
    for (s, &(lo, hi)) in input.assignment.iter().enumerate() {
        let grad_bytes = calib.graph.range_params(lo, hi) as f64 * 2.0;
        let mut tail = if input.d > 1 {
            calib.ar_time(grad_bytes, input.d, in_flight)
        } else {
            0.0
        };
        if p > 1 && (s == 0 || s == p - 1) {
            tail += calib.shared_sync_time();
        }
        if input.offload {
            tail += calib.graph.range_params(lo, hi) as f64 * 4.0 / 12.0e9;
        }
        total = total.max(finish[s] + tail);
    }
    Ok(total)
}

/// Enumerates the static per-stage op order for a configuration using the
/// calibrated times — this is the paper's offline rule-based schedule
/// (§3.2), produced by the same kernel the estimator runs.
pub fn plan_schedule(input: &SimInput<'_>) -> Result<StaticSchedule, VarunaError> {
    Ok(calibrated_pipeline(input)?.0)
}

/// Runs the [`varuna_schedule`] kernel on `input`'s calibrated per-stage
/// compute times, stash windows and boundary delays; returns the schedule
/// and each stage's last-backward completion time.
fn calibrated_pipeline(input: &SimInput<'_>) -> Result<(StaticSchedule, Vec<f64>), VarunaError> {
    let p = input.assignment.len();
    let calib = input.calib;
    let gpn = calib.gpus_per_node;
    let mut f = Vec::with_capacity(p);
    let mut b = Vec::with_capacity(p);
    let mut window = Vec::with_capacity(p);
    for &(lo, hi) in input.assignment {
        f.push(calib.fwd_time(lo, hi, input.m));
        b.push(calib.bwd_time(lo, hi, input.m));
        window.push(calib.window(lo, hi, input.m, input.offload)?.max(1));
    }
    // Boundary delay between stage s and s+1: intra-node when contiguous
    // placement keeps them on one VM.
    let delay: Vec<f64> = (0..p.saturating_sub(1))
        .map(|s| {
            let inter = gpn == 1 || (s / gpn) != ((s + 1) / gpn);
            calib.act_time(input.m, inter)
        })
        .collect();
    Ok(varuna_schedule(&f, &b, &delay, &window, input.n_micro))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::Calibration;
    use crate::partition::balanced_partition;
    use crate::VarunaCluster;
    use varuna_models::ModelZoo;

    fn setup(p: usize) -> (Calibration, Vec<(usize, usize)>) {
        let model = ModelZoo::gpt2_2_5b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(64));
        let asg = balanced_partition(&calib.graph.clone(), p);
        (calib, asg)
    }

    #[test]
    fn single_stage_time_is_compute_only() {
        // A model that actually fits one GPU.
        let model = ModelZoo::gpt2_355m();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(1));
        let asg = balanced_partition(&calib.graph.clone(), 1);
        let input = SimInput {
            calib: &calib,
            assignment: &asg,
            d: 1,
            m: 4,
            n_micro: 4,
            offload: false,
        };
        let t = estimate_minibatch_time(&input).unwrap();
        // A single stage is also the last stage: no recompute, so
        // N * (F + B) = N * 3F.
        let k = calib.graph.len();
        let expected = 4.0 * (calib.fwd_time(0, k, 4) + calib.bwd_time(0, k, 4));
        assert!(
            (t - expected).abs() / expected < 1e-9,
            "t={t} expected={expected}"
        );
    }

    #[test]
    fn more_microbatches_amortize_the_bubble() {
        let (calib, asg) = setup(6);
        let per_mb = |n: usize| {
            let input = SimInput {
                calib: &calib,
                assignment: &asg,
                d: 1,
                m: 2,
                n_micro: n,
                offload: false,
            };
            estimate_minibatch_time(&input).unwrap() / n as f64
        };
        let t4 = per_mb(4);
        let t32 = per_mb(32);
        assert!(t32 < t4, "per-micro-batch time should fall: {t4} -> {t32}");
    }

    #[test]
    fn data_parallelism_adds_allreduce_cost() {
        let (calib, asg) = setup(9);
        let t = |d: usize| {
            let input = SimInput {
                calib: &calib,
                assignment: &asg,
                d,
                m: 2,
                n_micro: 16,
                offload: false,
            };
            estimate_minibatch_time(&input).unwrap()
        };
        assert!(t(8) > t(1));
        // Ring allreduce cost saturates: 16 replicas barely worse than 8.
        assert!(t(16) < 1.2 * t(8));
    }

    #[test]
    fn oom_configurations_are_rejected() {
        let model = ModelZoo::gpt2_8_3b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(64));
        let asg = balanced_partition(&calib.graph.clone(), 4);
        let input = SimInput {
            calib: &calib,
            assignment: &asg,
            d: 1,
            m: 4,
            n_micro: 8,
            offload: false,
        };
        assert!(matches!(
            estimate_minibatch_time(&input),
            Err(crate::VarunaError::OutOfMemory(_))
        ));
    }

    #[test]
    fn deeper_pipelines_trade_bubble_for_allreduce() {
        // Observation 2 / Table 3: deeper pipelines burn more GPU-seconds
        // per mini-batch (bubble + boundary traffic) but shrink the
        // per-stage allreduce payload, so at a fixed GPU count the best
        // depth shifts with D.
        let model = ModelZoo::gpt2_2_5b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(128));
        let gpu_seconds = |p: usize, d: usize| {
            let asg = balanced_partition(&calib.graph.clone(), p);
            let n_micro = 8192 / (4 * d);
            let input = SimInput {
                calib: &calib,
                assignment: &asg,
                d,
                m: 4,
                n_micro,
                offload: false,
            };
            estimate_minibatch_time(&input).unwrap() * (p * d) as f64
        };
        // At D = 1 (no allreduce) the deep pipeline is pure overhead in
        // GPU-seconds.
        assert!(gpu_seconds(6, 1) < gpu_seconds(27, 1));
        // Going data-parallel hurts the shallow pipeline's per-GPU
        // efficiency more than the deep one's: its per-stage gradient
        // payload is 4.5x larger, so the ring allreduce tail is longer
        // (Observation 2 — the force behind the Table 3 crossover).
        let eff = |p: usize, d: usize| 8192.0 / gpu_seconds(p, d);
        let shallow_drop = eff(6, 9) / eff(6, 1);
        let deep_drop = eff(27, 2) / eff(27, 1);
        assert!(
            shallow_drop < deep_drop,
            "data parallelism should cost the shallow pipe more \
             (retained {shallow_drop:.3} vs {deep_drop:.3})"
        );
    }

    #[test]
    fn estimator_is_fast_enough_to_replan_on_preemption() {
        // §7.2: the simulator takes well under a second per configuration.
        let (calib, asg) = setup(18);
        let input = SimInput {
            calib: &calib,
            assignment: &asg,
            d: 7,
            m: 4,
            n_micro: 64,
            offload: false,
        };
        let start = std::time::Instant::now();
        let _ = estimate_minibatch_time(&input).unwrap();
        assert!(
            start.elapsed().as_millis() < 1000,
            "estimator took {:?}",
            start.elapsed()
        );
    }
}
