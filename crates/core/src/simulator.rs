//! The parametrized simulator (paper §4.4).
//!
//! An event-driven model of one mini-batch fed *only* by calibrated
//! primitives (never by the substrate's ground-truth models): per-stage
//! compute times, mean boundary-transfer latencies, allreduce costs with
//! NIC contention, tied-parameter sync, and optional optimizer-state
//! offload. It runs in microseconds-to-milliseconds per configuration —
//! fast enough to re-plan on every preemption — and Table 7 shows its
//! estimates land within ~5% of the full discrete-event emulation.

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
    let (makespan, finish, _) = calibrated_pipeline(input)?;

    // Sync tail: per-stage data-parallel allreduce (+ tied sync on the
    // boundary stages, + offload), overlapping across stages.
    let in_flight = gpn.min(p).max(1);
    let mut total = makespan;
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
/// (§3.2), produced by the same event-driven model the estimator runs.
pub fn plan_schedule(
    input: &SimInput<'_>,
) -> Result<varuna_sched::schedule::StaticSchedule, VarunaError> {
    let (makespan, _, per_stage) = calibrated_pipeline(input)?;
    Ok(varuna_sched::schedule::StaticSchedule {
        p: input.assignment.len(),
        n_micro: input.n_micro,
        per_stage,
        makespan,
    })
}

/// Runs [`simulate_pipeline`] on `input`'s calibrated per-stage compute
/// times, stash windows and boundary delays.
fn calibrated_pipeline(input: &SimInput<'_>) -> Result<PipelineRun, VarunaError> {
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
    Ok(simulate_pipeline(&f, &b, &delay, &window, input.n_micro))
}

/// A pipeline run: makespan, per-stage last-backward completion times,
/// and per-stage op order.
type PipelineRun = (f64, Vec<f64>, Vec<Vec<varuna_sched::op::Op>>);

/// Runs the pipeline phase event-driven under the Varuna discipline.
/// `O(P · N_m log)` — fast enough to re-plan on every preemption (§7.2).
fn simulate_pipeline(
    f: &[f64],
    b: &[f64],
    delay: &[f64],
    window: &[usize],
    n: usize,
) -> PipelineRun {
    use varuna_exec::engine::EventQueue;

    let p = f.len();
    let r = f; // Recompute re-runs the forward.

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        /// A stage finished its current op.
        Free(usize),
        /// The next forward input arrived at a stage.
        Act(usize),
        /// The next FIFO gradient arrived at a stage.
        Grad(usize),
        /// Constraint-1 window opened: the stage may recompute micro-batch
        /// `1`-indexed by its FIFO position.
        RecWindow(usize, usize),
    }

    struct St {
        free_at: f64,
        fwd_done: usize,
        acts_arrived: usize,
        grads_arrived: usize,
        bwd_count: usize,
        rec_done: Vec<bool>,
        rec_open: Vec<bool>,
        pending_rec: bool,
        live: Option<usize>,
        stash: usize,
        running: Option<(char, usize)>,
        last_bwd: f64,
        order: Vec<varuna_sched::op::Op>,
    }
    let mut st: Vec<St> = (0..p)
        .map(|s| St {
            free_at: 0.0,
            fwd_done: 0,
            acts_arrived: if s == 0 { n } else { 0 },
            grads_arrived: 0,
            bwd_count: 0,
            rec_done: vec![false; n],
            rec_open: vec![false; n],
            pending_rec: false,
            live: None,
            stash: 0,
            running: None,
            last_bwd: 0.0,
            order: Vec::with_capacity(3 * n),
        })
        .collect();

    let mut q: EventQueue<Ev> = EventQueue::new();
    for s in 0..p {
        q.push(0.0, Ev::Free(s));
    }
    let mut done = 0usize;
    let total = p * n;

    // Dispatch: start at most one op on stage `s` at time `now`.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        st: &mut [St],
        q: &mut EventQueue<Ev>,
        f: &[f64],
        b: &[f64],
        r: &[f64],
        delay: &[f64],
        window: &[usize],
        n: usize,
        p: usize,
        s: usize,
        now: f64,
    ) {
        if st[s].running.is_some() || st[s].free_at > now + 1e-15 {
            return;
        }
        let last = s == p - 1;
        let stage = &st[s];
        let next_b = stage.bwd_count;
        let grad_ready = next_b < stage.grads_arrived;
        let fwd_ready =
            stage.fwd_done < n && stage.stash < window[s] && stage.fwd_done < stage.acts_arrived;
        let op: Option<(char, usize)> = if stage.pending_rec {
            grad_ready.then_some(('B', next_b))
        } else if next_b < stage.fwd_done
            && grad_ready
            && (last || stage.rec_done[next_b] || stage.live == Some(next_b))
        {
            // Constraint 3: a ready backward always wins.
            Some(('B', next_b))
        } else if fwd_ready && (!grad_ready || last) {
            // Keep the pipe filled: run forwards ahead rather than
            // committing to a recompute whose gradient is not in hand
            // (constraint 2 would then idle the stage) — the same
            // preference the runtime policy's opportunistic deviation
            // expresses.
            Some(('F', stage.fwd_done))
        } else if !last
            && next_b < stage.fwd_done
            && next_b < n
            && !stage.rec_done[next_b]
            && stage.live != Some(next_b)
            && (stage.rec_open[next_b] || grad_ready)
        {
            Some(('R', next_b))
        } else if fwd_ready {
            Some(('F', stage.fwd_done))
        } else {
            None
        };
        let Some((kind, m)) = op else { return };
        let stage = &mut st[s];
        let dur = match kind {
            'F' => f[s],
            'R' => r[s],
            _ => b[s],
        };
        stage.running = Some((kind, m));
        stage.free_at = now + dur;
        stage.order.push(varuna_sched::op::Op::new(
            match kind {
                'F' => varuna_sched::op::OpKind::Forward,
                'R' => varuna_sched::op::OpKind::Recompute,
                _ => varuna_sched::op::OpKind::Backward,
            },
            m,
        ));
        if kind == 'B' && s > 0 {
            // Constraint 1: opening the upstream recompute window so the
            // recompute lands just before this backward's gradient
            // arrives.
            let arrival = now + dur + delay[s - 1];
            let open = (arrival - r[s - 1] - f[s - 1]).max(now);
            q.push(open, Ev::RecWindow(s - 1, m));
        }
        q.push(now + dur, Ev::Free(s));
    }

    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Free(s) => {
                // Complete the running op, if any.
                if let Some((kind, m)) = st[s].running.take() {
                    if st[s].free_at > now + 1e-15 {
                        // Stale event (op was re-scheduled); restore.
                        st[s].running = Some((kind, m));
                        continue;
                    }
                    match kind {
                        'F' => {
                            st[s].fwd_done += 1;
                            st[s].stash += 1;
                            st[s].live = Some(m);
                            if s + 1 < p {
                                q.push(now + delay[s], Ev::Act(s + 1));
                            } else {
                                // Loss gradient is locally available.
                                st[s].grads_arrived += 1;
                            }
                        }
                        'R' => {
                            st[s].rec_done[m] = true;
                            st[s].pending_rec = true;
                            st[s].live = Some(m);
                        }
                        _ => {
                            st[s].bwd_count += 1;
                            st[s].pending_rec = false;
                            st[s].live = None;
                            st[s].stash -= 1;
                            st[s].last_bwd = now;
                            done += 1;
                            if s > 0 {
                                q.push(now + delay[s - 1], Ev::Grad(s - 1));
                            }
                        }
                    }
                }
                dispatch(&mut st, &mut q, f, b, r, delay, window, n, p, s, now);
            }
            Ev::Act(s) => {
                st[s].acts_arrived += 1;
                dispatch(&mut st, &mut q, f, b, r, delay, window, n, p, s, now);
            }
            Ev::Grad(s) => {
                st[s].grads_arrived += 1;
                dispatch(&mut st, &mut q, f, b, r, delay, window, n, p, s, now);
            }
            Ev::RecWindow(s, m) => {
                if m < n {
                    st[s].rec_open[m] = true;
                }
                dispatch(&mut st, &mut q, f, b, r, delay, window, n, p, s, now);
            }
        }
    }
    assert_eq!(
        done, total,
        "fast simulator wedged: {done}/{total} backwards"
    );
    let makespan = st.iter().map(|s| s.last_bwd).fold(0.0, f64::max);
    let mut finish = Vec::with_capacity(p);
    let mut orders = Vec::with_capacity(p);
    for s in st {
        finish.push(s.last_bwd);
        orders.push(s.order);
    }
    (makespan, finish, orders)
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
    fn calibrated_kernel_at_unit_times_against_the_offline_rules() {
        // Characterizes how the planner's event-driven kernel and
        // `generate_schedule`'s rules differ at unit times (F = R = 1,
        // B = 2, zero delay): they agree whenever a stage holds one stash,
        // and disagree on 280 of the 384 wider-window shapes.
        use varuna_sched::schedule::generate_schedule;
        let unit = |p: usize, n: usize, w: usize| {
            simulate_pipeline(
                &vec![1.0; p],
                &vec![2.0; p],
                &vec![0.0; p - 1],
                &vec![w; p],
                n,
            )
        };
        let (mut orders, mut makespans, mut shapes) = (0, 0, 0);
        for p in 1..=8 {
            for n in 1..=16 {
                for w in [1, 2, 4, usize::MAX] {
                    let (makespan, _, per_stage) = unit(p, n, w);
                    let rules = generate_schedule(p, n, w);
                    if w == 1 {
                        assert_eq!(per_stage, rules.per_stage, "p={p} n={n}");
                    }
                    orders += usize::from(per_stage == rules.per_stage);
                    makespans += usize::from(makespan == rules.makespan);
                    shapes += 1;
                }
            }
        }
        assert_eq!((orders, makespans, shapes), (232, 231, 512));
        // Figure 4's 4 x 5 shape: the rules give 30 units, the kernel 26.
        let rules = generate_schedule(4, 5, usize::MAX).makespan;
        assert_eq!((rules, unit(4, 5, usize::MAX).0), (30.0, 26.0));
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
