//! `VarunaPolicy` looks up its opportunistic forward by micro-batch index;
//! this pins it, bit for bit, to the linear scan over the stage's op list
//! that it replaced. The reference below is that scan, kept verbatim.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{simulate_minibatch_on_bus, MinibatchResult, SimOptions};
use varuna_exec::placement::Placement;
use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
use varuna_net::Topology;
use varuna_obs::{Event, EventBus, EventKind, VecSink};
use varuna_sched::op::{Op, OpKind};
use varuna_sched::policy::{PolicyFactory, SchedulePolicy, StageView};
use varuna_sched::schedule::{generate_schedule, StaticSchedule, VarunaPolicy};

/// The run-time Varuna policy with the original O(n) opportunistic scan.
/// Counts the opportunistic forwards it fires so the grid can show the
/// branch under test actually ran.
struct LinearScanPolicy {
    order: Vec<Op>,
    executed: Vec<bool>,
    cursor: usize,
    opportunistic: bool,
    fired: Arc<AtomicUsize>,
}

impl LinearScanPolicy {
    fn new(
        schedule: &StaticSchedule,
        stage: usize,
        opportunistic: bool,
        fired: Arc<AtomicUsize>,
    ) -> Self {
        let order = schedule.per_stage[stage].clone();
        LinearScanPolicy {
            executed: vec![false; order.len()],
            order,
            cursor: 0,
            opportunistic,
            fired,
        }
    }
}

impl SchedulePolicy for LinearScanPolicy {
    fn pick(&mut self, view: &StageView<'_>) -> Option<Op> {
        loop {
            while self.cursor < self.order.len() && self.executed[self.cursor] {
                self.cursor += 1;
            }
            let &op = self.order.get(self.cursor)?;
            if op.kind == OpKind::Recompute
                && (view.backwards_done[op.micro] || view.live_acts == Some(op.micro))
            {
                self.executed[self.cursor] = true;
                continue;
            }
            if op.kind == OpKind::Backward
                && view.grads_ready[op.micro]
                && !view.backward_ready(op.micro)
                && view.recompute_ready(op.micro)
            {
                return Some(Op::new(OpKind::Recompute, op.micro));
            }
            let rec_premature = op.kind == OpKind::Recompute && !view.grads_ready[op.micro];
            if !rec_premature && view.is_legal(op) {
                self.executed[self.cursor] = true;
                return Some(op);
            }
            break;
        }
        if !self.opportunistic {
            return None;
        }
        for i in self.cursor + 1..self.order.len() {
            if self.executed[i] {
                continue;
            }
            let op = self.order[i];
            if op.kind == OpKind::Forward && view.is_legal(op) {
                self.executed[i] = true;
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(op);
            }
        }
        None
    }
}

/// GPT-2 355M, `d = 2`, with one stuttering GPU on stage 1 so gradients
/// arrive late and opportunistic forwards fire.
fn job(p: usize, n_micro: usize) -> PlacedJob {
    let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_355m());
    let d = 2;
    let mut job = PlacedJob::uniform_from_graph(
        &graph,
        &GpuModel::v100(),
        p,
        d,
        2,
        n_micro,
        Topology::commodity_1gpu(p * d),
        Placement::one_stage_per_gpu(p, d),
    );
    job.stutter = vec![1.0; p * d];
    job.stutter[d] = 2.5;
    job
}

/// Every bit of a mini-batch outcome, in a comparable form. The per-op
/// spans are compared separately, as the run's `OpEnd` events.
fn result_bits(res: &MinibatchResult) -> Vec<u64> {
    let mut bits = vec![
        res.total_time.to_bits(),
        res.pipeline_time.to_bits(),
        res.sync_tail.to_bits(),
    ];
    bits.extend(res.peak_stash.iter().map(|&s| s as u64));
    for v in [&res.busy_time, &res.stage_finish, &res.allreduce] {
        bits.extend(v.iter().map(|x| x.to_bits()));
    }
    bits
}

/// The `OpEnd` events of a run, floats as bit patterns.
fn op_ends(events: &[Event]) -> Vec<(u64, usize, usize, char, usize, u64)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                start,
            } => Some((
                e.t_sim.to_bits(),
                stage,
                replica,
                op,
                micro,
                start.to_bits(),
            )),
            _ => None,
        })
        .collect()
}

fn run(job: &PlacedJob, factory: &PolicyFactory<'_>, opts: &SimOptions) -> (Vec<u64>, Vec<Event>) {
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    let res =
        simulate_minibatch_on_bus(job, factory, opts, &mut bus).expect("mini-batch completes");
    (result_bits(&res), sink.take())
}

#[test]
fn indexed_opportunistic_dispatch_matches_the_linear_scan() {
    let mut fired_total = 0;
    for p in [2, 3, 4, 6] {
        for n_micro in [3, 8, 13] {
            for window in [1, 2, 4, usize::MAX] {
                for seed in [1, 7] {
                    let schedule = generate_schedule(p, n_micro, window.min(n_micro));
                    let job = job(p, n_micro);
                    let opts = SimOptions {
                        seed,
                        stash_window_override: Some(window),
                        compute_jitter: 0.3,
                        ..SimOptions::default()
                    };
                    for opportunistic in [true, false] {
                        let fired = Arc::new(AtomicUsize::new(0));
                        let reference = run(
                            &job,
                            &|s, _| {
                                Box::new(LinearScanPolicy::new(
                                    &schedule,
                                    s,
                                    opportunistic,
                                    fired.clone(),
                                ))
                            },
                            &opts,
                        );
                        let indexed = run(
                            &job,
                            &|s, _| {
                                Box::new(if opportunistic {
                                    VarunaPolicy::for_stage(&schedule, s)
                                } else {
                                    VarunaPolicy::strict_for_stage(&schedule, s)
                                })
                            },
                            &opts,
                        );
                        let shape = format!("p={p} n={n_micro} window={window} seed={seed} opportunistic={opportunistic}");
                        assert_eq!(reference.0, indexed.0, "MinibatchResult differs at {shape}");
                        assert!(
                            !op_ends(&reference.1).is_empty(),
                            "no OpEnd events at {shape}"
                        );
                        assert_eq!(
                            op_ends(&reference.1),
                            op_ends(&indexed.1),
                            "OpEnd stream differs at {shape}"
                        );
                        fired_total += fired.load(Ordering::Relaxed);
                    }
                }
            }
        }
    }
    assert!(
        fired_total > 0,
        "the grid never exercised an opportunistic forward"
    );
}
