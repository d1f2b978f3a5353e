//! Bit-identity oracle for the emulator's event loop.
//!
//! `reference` below is the event loop as it stood before the fast path
//! (routes resolved per transfer, a boxed policy and three flag vectors
//! per `(stage, replica)`, fat event payloads, a `(time, seq)` heap
//! comparing floats), kept verbatim as a test-only copy. Every shipped
//! entry point must reproduce it bit for bit: the `MinibatchResult`
//! fields and the full event stream, across policies, jitter, blocking
//! sends, stash windows, stutter, topologies and seeds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use varuna_baselines::{GPipePolicy, OneF1BPolicy, PipeDreamPolicy};
use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{
    simulate_minibatch_on_bus, simulate_schedule_on_bus, MinibatchResult, SimError, SimOptions,
};
use varuna_exec::placement::Placement;
use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
use varuna_net::collective::{allreduce_time, AllreduceSpec};
use varuna_net::jitter::sample_jitter;
use varuna_net::transfer::fair_share;
use varuna_net::Topology;
use varuna_obs::{Event, EventBus, EventKind, VecSink};
use varuna_sched::op::{Op, OpKind};
use varuna_sched::policy::{GreedyPolicy, PolicyFactory, SchedulePolicy, StageView};
use varuna_sched::schedule::{generate_schedule, VarunaPolicy};

// ---- The reference loop, as shipped before the fast path. ----

/// The event queue as the reference shipped it: a `BinaryHeap` ordered by
/// `f64::total_cmp` on the time, then the insertion sequence.
struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

struct Entry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, time: f64, payload: E) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative"
        );
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    OpDone {
        s: usize,
        r: usize,
        op: Op,
        started: f64,
    },
    ActArrive {
        s: usize,
        r: usize,
    },
    GradArrive {
        s: usize,
        r: usize,
        mb: usize,
    },
    SendDone {
        s: usize,
        r: usize,
    },
}

struct StageRt {
    busy: bool,
    forwards_done: usize,
    acts_arrived: usize,
    grads_ready: Vec<bool>,
    recomputes_done: Vec<bool>,
    backwards_done: Vec<bool>,
    backwards_count: usize,
    live_acts: Option<usize>,
    pending_recompute: Option<usize>,
    stash_len: usize,
    peak_stash: usize,
    window: usize,
    last_bwd_end: f64,
    busy_time: f64,
    /// FIFO enforcement: last delivery time on the activation channel from
    /// the previous stage and the gradient channel from the next stage.
    chan_act_last: f64,
    chan_grad_last: f64,
    policy: Box<dyn SchedulePolicy>,
}

fn reference_on_bus(
    job: &PlacedJob,
    policies: &PolicyFactory<'_>,
    opts: &SimOptions,
    bus: &mut EventBus,
) -> Result<MinibatchResult, SimError> {
    job.validate();
    let p = job.p();
    let d = job.d;
    let n = job.n_micro;
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let idx = |s: usize, r: usize| r * p + s;
    let mut st: Vec<StageRt> = Vec::with_capacity(p * d);
    for r in 0..d {
        for s in 0..p {
            let window = opts
                .stash_window_override
                .unwrap_or(job.stages[s].stash_window)
                .max(1);
            st.push(StageRt {
                busy: false,
                forwards_done: 0,
                acts_arrived: if s == 0 { n } else { 0 },
                grads_ready: vec![false; n],
                recomputes_done: vec![false; n],
                backwards_done: vec![false; n],
                backwards_count: 0,
                live_acts: None,
                pending_recompute: None,
                stash_len: 0,
                peak_stash: 0,
                window,
                last_bwd_end: 0.0,
                busy_time: 0.0,
                chan_act_last: 0.0,
                chan_grad_last: 0.0,
                policy: policies(s, r),
            });
        }
    }
    // Reorder: built r-major with s inner, consistent with idx.
    // (idx(s, r) = r * p + s — matches the push order above.)

    let mut q: EventQueue<Ev> = EventQueue::new();
    // In-flight inter-node flows per node, for NIC fair sharing.
    let mut inflight: Vec<usize> = vec![0; job.topology.num_nodes()];
    let mut done_pairs = 0usize;

    // Dispatch helper effects are implemented inline in the event loop to
    // appease the borrow checker; `dispatch` computes the chosen op.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        st: &mut [StageRt],
        job: &PlacedJob,
        opts: &SimOptions,
        p: usize,
        s: usize,
        r: usize,
        now: f64,
        q: &mut EventQueue<Ev>,
        rng: &mut StdRng,
        bus: &mut EventBus,
    ) {
        let i = r * p + s;
        if st[i].busy {
            return;
        }
        let op = {
            // Destructure so the policy (mutable) and the state it views
            // (immutable) borrow disjoint fields.
            let StageRt {
                policy,
                forwards_done,
                acts_arrived,
                grads_ready,
                recomputes_done,
                backwards_done,
                live_acts,
                pending_recompute,
                stash_len,
                window,
                ..
            } = &mut st[i];
            let view = StageView {
                stage: s,
                p,
                last_stage: s == p - 1,
                n_micro: job.n_micro,
                forwards_done: *forwards_done,
                next_forward_ready: *forwards_done < *acts_arrived && *stash_len < *window,
                grads_ready,
                recomputes_done,
                backwards_done,
                live_acts: *live_acts,
                pending_recompute: *pending_recompute,
                stash_len: *stash_len,
                stash_window: *window,
                recompute_enabled: opts.recompute,
            };
            let Some(op) = policy.pick(&view) else {
                return;
            };
            assert!(
                view.is_legal(op),
                "policy picked illegal op {op:?} at stage {s} replica {r}"
            );
            op
        };
        let stutter = job.stutter_of(s, r);
        let spec = &job.stages[s];
        // Mean-preserving lognormal kernel-time variation.
        let noise = if opts.compute_jitter > 0.0 {
            let sigma = opts.compute_jitter;
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (sigma * normal - sigma * sigma / 2.0).exp()
        } else {
            1.0
        };
        let dur = stutter
            * noise
            * match op.kind {
                OpKind::Forward => spec.fwd_time,
                OpKind::Recompute => spec.recompute_time,
                OpKind::Backward => spec.bwd_time,
            };
        let stage = &mut st[i];
        // Starting any op invalidates live activations unless the op is
        // the backward consuming them.
        if !(op.kind == OpKind::Backward && stage.live_acts == Some(op.micro)) {
            stage.live_acts = None;
        }
        stage.busy = true;
        stage.busy_time += dur;
        q.push(
            now + dur,
            Ev::OpDone {
                s,
                r,
                op,
                started: now,
            },
        );
        bus.emit_with(|| {
            Event::exec(
                now,
                EventKind::OpStart {
                    stage: s,
                    replica: r,
                    op: op.kind.code(),
                    micro: op.micro,
                },
            )
        });
    }

    // Kick off all first-stage (and trivially-ready) dispatches.
    for r in 0..d {
        for s in 0..p {
            dispatch(&mut st, job, opts, p, s, r, 0.0, &mut q, &mut rng, bus);
        }
    }

    let mut last_time = 0.0;
    while let Some((now, ev)) = q.pop() {
        last_time = now;
        match ev {
            Ev::OpDone { s, r, op, started } => {
                let i = idx(s, r);
                bus.emit_with(|| {
                    Event::exec(
                        now,
                        EventKind::OpEnd {
                            stage: s,
                            replica: r,
                            op: op.kind.code(),
                            micro: op.micro,
                            start: started,
                        },
                    )
                });
                st[i].busy = false;
                match op.kind {
                    OpKind::Forward => {
                        st[i].forwards_done += 1;
                        st[i].stash_len += 1;
                        st[i].peak_stash = st[i].peak_stash.max(st[i].stash_len);
                        st[i].live_acts = Some(op.micro);
                        if s == p - 1 {
                            // Loss gradient is locally available.
                            st[i].grads_ready[op.micro] = true;
                        } else {
                            // Send activations to the next stage.
                            let (delay, ser) = transfer(
                                job,
                                &mut inflight,
                                &mut rng,
                                s,
                                r,
                                s + 1,
                                job.stages[s].act_bytes,
                            );
                            bus.emit_with(|| {
                                Event::exec(
                                    now,
                                    EventKind::Transfer {
                                        from_stage: s,
                                        to_stage: s + 1,
                                        replica: r,
                                        micro: op.micro,
                                        bytes: job.stages[s].act_bytes,
                                        seconds: delay,
                                    },
                                )
                            });
                            let j = idx(s + 1, r);
                            let arrive = (now + delay).max(st[j].chan_act_last + 1e-9);
                            st[j].chan_act_last = arrive;
                            q.push(arrive, Ev::ActArrive { s: s + 1, r });
                            if opts.blocking_sends {
                                st[i].busy = true;
                                st[i].busy_time += ser;
                                bus.emit_with(|| {
                                    Event::exec(
                                        now,
                                        EventKind::SendBusy {
                                            stage: s,
                                            replica: r,
                                            micro: op.micro,
                                            seconds: ser,
                                        },
                                    )
                                });
                                q.push(now + ser, Ev::SendDone { s, r });
                            }
                        }
                    }
                    OpKind::Recompute => {
                        st[i].recomputes_done[op.micro] = true;
                        st[i].pending_recompute = Some(op.micro);
                        st[i].live_acts = Some(op.micro);
                    }
                    OpKind::Backward => {
                        st[i].backwards_done[op.micro] = true;
                        st[i].backwards_count += 1;
                        st[i].stash_len = st[i].stash_len.saturating_sub(1);
                        if st[i].pending_recompute == Some(op.micro) {
                            st[i].pending_recompute = None;
                        }
                        st[i].live_acts = None;
                        st[i].last_bwd_end = now;
                        if st[i].backwards_count == n {
                            done_pairs += 1;
                        }
                        if s > 0 {
                            let (delay, ser) = transfer(
                                job,
                                &mut inflight,
                                &mut rng,
                                s,
                                r,
                                s - 1,
                                job.stages[s - 1].act_bytes,
                            );
                            bus.emit_with(|| {
                                Event::exec(
                                    now,
                                    EventKind::Transfer {
                                        from_stage: s,
                                        to_stage: s - 1,
                                        replica: r,
                                        micro: op.micro,
                                        bytes: job.stages[s - 1].act_bytes,
                                        seconds: delay,
                                    },
                                )
                            });
                            let j = idx(s - 1, r);
                            let arrive = (now + delay).max(st[j].chan_grad_last + 1e-9);
                            st[j].chan_grad_last = arrive;
                            q.push(
                                arrive,
                                Ev::GradArrive {
                                    s: s - 1,
                                    r,
                                    mb: op.micro,
                                },
                            );
                            if opts.blocking_sends {
                                st[i].busy = true;
                                st[i].busy_time += ser;
                                bus.emit_with(|| {
                                    Event::exec(
                                        now,
                                        EventKind::SendBusy {
                                            stage: s,
                                            replica: r,
                                            micro: op.micro,
                                            seconds: ser,
                                        },
                                    )
                                });
                                q.push(now + ser, Ev::SendDone { s, r });
                            }
                        }
                    }
                }
                if !st[i].busy {
                    dispatch(&mut st, job, opts, p, s, r, now, &mut q, &mut rng, bus);
                }
            }
            Ev::ActArrive { s, r } => {
                release_flow(job, &mut inflight, s - 1, r, s);
                let i = idx(s, r);
                st[i].acts_arrived += 1;
                dispatch(&mut st, job, opts, p, s, r, now, &mut q, &mut rng, bus);
            }
            Ev::GradArrive { s, r, mb } => {
                release_flow(job, &mut inflight, s + 1, r, s);
                let i = idx(s, r);
                st[i].grads_ready[mb] = true;
                dispatch(&mut st, job, opts, p, s, r, now, &mut q, &mut rng, bus);
            }
            Ev::SendDone { s, r } => {
                let i = idx(s, r);
                st[i].busy = false;
                dispatch(&mut st, job, opts, p, s, r, now, &mut q, &mut rng, bus);
            }
        }
    }

    if done_pairs != p * d {
        let unfinished: Vec<usize> = (0..p)
            .filter(|&s| (0..d).any(|r| st[idx(s, r)].backwards_count < n))
            .collect();
        return Err(SimError::Deadlock {
            unfinished_stages: unfinished,
        });
    }

    // Sync phase: per-stage data-parallel allreduce, tied-parameter sync,
    // optional optimizer-state offload.
    let mut stage_finish = vec![0.0f64; p];
    let mut peak_stash = vec![0usize; p];
    let mut busy_time = vec![0.0f64; p];
    for s in 0..p {
        for r in 0..d {
            let i = idx(s, r);
            stage_finish[s] = stage_finish[s].max(st[i].last_bwd_end);
            peak_stash[s] = peak_stash[s].max(st[i].peak_stash);
            busy_time[s] += st[i].busy_time;
        }
        busy_time[s] /= d as f64;
    }
    let pipeline_time = last_time;

    // How many job endpoints share each node (concurrent allreduce rings
    // contending for one NIC).
    let mut per_node = vec![0usize; job.topology.num_nodes()];
    for r in 0..d {
        for s in 0..p {
            per_node[job.topology.node_of(job.placement.endpoint(s, r))] += 1;
        }
    }

    let mut allreduce = vec![0.0f64; p];
    let mut total_time: f64 = pipeline_time;
    for s in 0..p {
        let ring = job.placement.stage_ring(s);
        let cross_node = ring.windows(2).any(|w| !job.topology.same_node(w[0], w[1]))
            || (ring.len() > 1 && !job.topology.same_node(ring[0], *ring.last().unwrap()));
        let link = if cross_node || ring.len() == 1 {
            job.topology.inter_link()
        } else {
            job.topology.intra_link()
        };
        let in_flight = ring
            .iter()
            .map(|&e| per_node[job.topology.node_of(e)])
            .max()
            .unwrap_or(1);
        let ar = allreduce_time(
            AllreduceSpec {
                bytes: job.stages[s].grad_bytes,
                ring_size: d,
                in_flight,
            },
            link,
        );
        allreduce[s] = ar;
        if d > 1 {
            bus.emit_with(|| {
                Event::exec(
                    stage_finish[s] + ar,
                    EventKind::Allreduce {
                        stage: s,
                        bytes: job.stages[s].grad_bytes,
                        ring: d,
                        seconds: ar,
                    },
                )
            });
        }
        let mut tail = ar;
        // Tied-parameter sync between the first and last stage of each
        // replica (ring of 2 over the inter-stage link).
        if job.shared_sync_bytes > 0.0 && p > 1 && (s == 0 || s == p - 1) {
            let e0 = job.placement.endpoint(0, 0);
            let e1 = job.placement.endpoint(p - 1, 0);
            let link01 = job.topology.link_between(e0, e1);
            tail += allreduce_time(
                AllreduceSpec {
                    bytes: job.shared_sync_bytes,
                    ring_size: 2,
                    in_flight: 1,
                },
                link01,
            );
        }
        if let Some(bytes) = job.offload_bytes {
            // Gradients out, updated fp16 weights back, over PCIe.
            tail += bytes / 12.0e9;
        }
        total_time = total_time.max(stage_finish[s] + tail);
    }
    let sync_tail = total_time - pipeline_time;

    Ok(MinibatchResult {
        total_time,
        pipeline_time,
        sync_tail,
        peak_stash,
        busy_time,
        stage_finish,
        allreduce,
    })
}

/// Computes (total delivery delay, serialization time) for a message of
/// `bytes` from `(s_from, r)` to `(s_to, r)`, updating NIC in-flight
/// bookkeeping approximately (contention is sampled at send time).
fn transfer(
    job: &PlacedJob,
    inflight: &mut [usize],
    rng: &mut StdRng,
    s_from: usize,
    r: usize,
    s_to: usize,
    bytes: f64,
) -> (f64, f64) {
    let src = job.placement.endpoint(s_from, r);
    let dst = job.placement.endpoint(s_to, r);
    let link = job.topology.link_between(src, dst);
    let same = job.topology.same_node(src, dst);
    let node = job.topology.node_of(src);
    let flows = if same {
        1
    } else {
        // Contention is sampled at send time; the matching decrement
        // happens when the message is delivered.
        inflight[node] += 1;
        inflight[node]
    };
    let bottleneck = if same {
        link.bandwidth
    } else {
        job.topology.nic_bandwidth()
    };
    let bw = link.bandwidth.min(fair_share(bottleneck, flows));
    let ser = bytes / bw;
    let jitter = sample_jitter(&link.jitter, rng);
    (link.latency + jitter + ser, ser)
}

/// Releases the NIC slot taken by a delivered cross-node message sent from
/// `(s_from, r)` to `(s_to, r)`.
fn release_flow(job: &PlacedJob, inflight: &mut [usize], s_from: usize, r: usize, s_to: usize) {
    let src = job.placement.endpoint(s_from, r);
    let dst = job.placement.endpoint(s_to, r);
    if !job.topology.same_node(src, dst) {
        let node = job.topology.node_of(src);
        inflight[node] = inflight[node].saturating_sub(1);
    }
}

/// Every bit of a mini-batch outcome, in a comparable form.
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

/// A run's outcome (a deadlock included) and its event stream.
type Run = (Result<Vec<u64>, SimError>, Vec<Event>);

fn capture(sim: impl FnOnce(&mut EventBus) -> Result<MinibatchResult, SimError>) -> Run {
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    let res = sim(&mut bus).map(|r| result_bits(&r));
    (res, sink.take())
}

/// Asserts that `got` reproduces `want` bit for bit, events included
/// (compared by their debug text, which prints every float exactly).
fn assert_identical(want: &Run, got: &Run, what: &str) {
    assert_eq!(want.0, got.0, "MinibatchResult differs: {what}");
    assert_eq!(want.1.len(), got.1.len(), "event count differs: {what}");
    for (k, (a, b)) in want.1.iter().zip(&got.1).enumerate() {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "event {k} differs: {what}"
        );
    }
}

/// GPT-2 355M over `p` stages and `d` replicas on `gpus_per_node`-GPU
/// nodes, optionally with one GPU stuttering at 2.5x.
fn job(p: usize, d: usize, n_micro: usize, gpus_per_node: usize, stutter: bool) -> PlacedJob {
    let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_355m());
    let topology = match gpus_per_node {
        1 => Topology::commodity_1gpu(p * d),
        4 => Topology::commodity_4gpu((p * d).div_ceil(4)),
        other => panic!("no {other}-GPU topology here"),
    };
    let mut job = PlacedJob::uniform_from_graph(
        &graph,
        &GpuModel::v100(),
        p,
        d,
        2,
        n_micro,
        topology,
        Placement::one_stage_per_gpu(p, d),
    );
    if stutter {
        job.stutter = vec![1.0; job.topology.num_gpus()];
        job.stutter[job.placement.endpoint(p / 2, d - 1)] = 2.5;
    }
    job
}

#[derive(Debug, Clone, Copy)]
enum Policy {
    Varuna,
    VarunaStrict,
    Greedy,
    GPipe,
    OneF1B,
    PipeDream,
}

const POLICIES: [Policy; 6] = [
    Policy::Varuna,
    Policy::VarunaStrict,
    Policy::Greedy,
    Policy::GPipe,
    Policy::OneF1B,
    Policy::PipeDream,
];

/// Runs the reference and every shipped entry point that can run
/// `policy`, asserts they agree bit for bit (a deadlock must deadlock the
/// same way), and returns the ops a completed run executed.
fn check(job: &PlacedJob, policy: Policy, opts: &SimOptions, what: &str) -> usize {
    let window = opts
        .stash_window_override
        .unwrap_or(usize::MAX)
        .min(job.n_micro);
    let schedule = generate_schedule(job.p(), job.n_micro, window);
    let factory: Box<PolicyFactory<'_>> = match policy {
        Policy::Varuna => Box::new(|s, _| Box::new(VarunaPolicy::for_stage(&schedule, s))),
        Policy::VarunaStrict => {
            Box::new(|s, _| Box::new(VarunaPolicy::strict_for_stage(&schedule, s)))
        }
        Policy::Greedy => Box::new(|_, _| Box::new(GreedyPolicy)),
        Policy::GPipe => Box::new(|_, _| Box::new(GPipePolicy)),
        Policy::OneF1B => Box::new(|_, _| Box::new(OneF1BPolicy)),
        Policy::PipeDream => Box::new(|_, _| Box::new(PipeDreamPolicy)),
    };
    let opts = SimOptions {
        recompute: !matches!(policy, Policy::PipeDream),
        ..opts.clone()
    };
    let what = format!("{policy:?} {what}");
    let want = capture(|bus| reference_on_bus(job, &*factory, &opts, bus));
    let got = capture(|bus| simulate_minibatch_on_bus(job, &*factory, &opts, bus));
    assert_identical(&want, &got, &what);
    if matches!(policy, Policy::Varuna) {
        let direct = capture(|bus| simulate_schedule_on_bus(job, &schedule, &opts, bus));
        assert_identical(&want, &direct, &format!("{what} (direct dispatch)"));
    }
    if want.0.is_err() {
        return 0;
    }
    want.1
        .iter()
        .filter(|e| matches!(e.kind, EventKind::OpEnd { .. }))
        .count()
}

#[test]
fn every_policy_matches_the_reference_loop_bit_for_bit() {
    let mut ops = [0; POLICIES.len()];
    for (p, d, n_micro, gpus_per_node) in [(4, 2, 6, 1), (3, 4, 5, 4), (6, 1, 9, 1), (1, 3, 4, 4)] {
        for stutter in [false, true] {
            for (jitter, seed) in [(0.0, 0), (0.3, 1), (0.3, 42)] {
                for (blocking_sends, window) in [(false, None), (true, Some(2))] {
                    let job = job(p, d, n_micro, gpus_per_node, stutter);
                    let opts = SimOptions {
                        seed,
                        compute_jitter: jitter,
                        blocking_sends,
                        stash_window_override: window,
                        ..SimOptions::default()
                    };
                    for (k, policy) in POLICIES.into_iter().enumerate() {
                        let what = format!(
                            "p={p} d={d} n={n_micro} gpn={gpus_per_node} stutter={stutter} \
                             jitter={jitter} seed={seed} blocking={blocking_sends} window={window:?}"
                        );
                        ops[k] += check(&job, policy, &opts, &what);
                    }
                }
            }
        }
    }
    for (policy, ops) in POLICIES.iter().zip(ops) {
        assert!(ops > 1_000, "{policy:?} completed only {ops} ops");
    }
}

#[test]
fn nic_contention_runs_through_the_shared_in_flight_counts() {
    // Four GPUs per node and eight replicas: many replicas' flows share
    // each NIC, so fair shares (and hence timings) depend on the in-flight
    // bookkeeping the fast path keeps per route.
    let contended = job(4, 8, 8, 4, false);
    let mut alone = contended.clone();
    alone.topology = Topology::commodity_1gpu(32);
    let opts = SimOptions {
        seed: 7,
        ..SimOptions::default()
    };
    let total = |job: &PlacedJob| {
        let schedule = generate_schedule(job.p(), job.n_micro, job.n_micro);
        capture(|bus| simulate_schedule_on_bus(job, &schedule, &opts, bus))
            .0
            .expect("mini-batch completes")[0]
    };
    assert_ne!(total(&contended), total(&alone), "contention never bound");
    for policy in POLICIES {
        check(&contended, policy, &opts, "contended");
    }
}
