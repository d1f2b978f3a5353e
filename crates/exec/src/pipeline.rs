//! The mini-batch simulation driver.
//!
//! Executes one mini-batch of a [`PlacedJob`]: `N_m` micro-batches flow
//! through `P` stages on every one of the `D` replicas, activation and
//! gradient messages traverse the topology with latency/jitter and NIC
//! contention, and the mini-batch ends with the per-stage data-parallel
//! gradient allreduce plus the tied-parameter sync (the purple region at
//! the right of the paper's Figure 7 Gantt chart). The same event loop,
//! run on a unit-time job, renders a policy's offline schedule
//! ([`render_unit_schedule`], paper Figure 4). For the planner's search,
//! [`lower_bound`] prices a job before any event fires and
//! [`simulate_schedule_within`] abandons a run that provably cannot
//! finish by a cutoff.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use varuna_net::collective::{allreduce_time, AllreduceSpec};
use varuna_net::jitter::{JitterModel, PreparedJitter};
use varuna_net::transfer::fair_share;
use varuna_net::{Link, Topology};
use varuna_obs::{Event, EventBus, EventKind};

use crate::job::{PlacedJob, StageSpec};
use crate::placement::Placement;
use varuna_sched::op::{Op, OpKind};
use varuna_sched::policy::{PolicyFactory, SchedulePolicy, StageView};
use varuna_sched::queue::EventQueue;
use varuna_sched::schedule::{StageOrder, StaticSchedule};

/// Options controlling one simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// RNG seed for jitter sampling.
    pub seed: u64,
    /// If true the sender GPU stays busy for the serialization time of each
    /// send — models schedules/runtimes that do not overlap communication
    /// with compute.
    pub blocking_sends: bool,
    /// Whether backward requires rematerialized activations (true for
    /// recompute-based systems; false for PipeDream, which stores them).
    pub recompute: bool,
    /// Overrides every stage's stash window when set.
    pub stash_window_override: Option<usize>,
    /// Lognormal sigma of per-op compute-time variation (mean-preserving).
    /// Real GPU kernel times vary run to run, and spot VMs stutter; strict
    /// schedules propagate these hiccups while work-conserving ones absorb
    /// them.
    pub compute_jitter: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0,
            blocking_sends: false,
            recompute: true,
            stash_window_override: None,
            compute_jitter: 0.06,
        }
    }
}

impl SimOptions {
    /// Options for a fully deterministic emulation: zero compute jitter and
    /// a fixed seed. This is the configuration the
    /// planner uses when scoring candidate `(p, d, m)` configs — the paper's
    /// simulator predicts mean mini-batch time, so jitter is noise there.
    pub fn deterministic() -> Self {
        SimOptions {
            compute_jitter: 0.0,
            ..SimOptions::default()
        }
    }
}

/// Outcome of one simulated mini-batch.
#[derive(Debug, Clone)]
pub struct MinibatchResult {
    /// End-to-end wall-clock time of the mini-batch, seconds.
    pub total_time: f64,
    /// Time until the last backward completed (before sync), seconds.
    pub pipeline_time: f64,
    /// Longest per-stage sync tail (allreduce + shared-param sync +
    /// optimizer offload), seconds.
    pub sync_tail: f64,
    /// Per-stage peak input-activation stash (max over replicas).
    pub peak_stash: Vec<usize>,
    /// Per-stage, per-replica-averaged GPU busy time, seconds.
    pub busy_time: Vec<f64>,
    /// Per-stage completion time of the last backward (max over replicas).
    pub stage_finish: Vec<f64>,
    /// Per-stage gradient allreduce duration, seconds.
    pub allreduce: Vec<f64>,
}

impl MinibatchResult {
    /// Mean GPU utilization over the whole mini-batch.
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.busy_time.iter().sum();
        busy / (self.busy_time.len() as f64 * self.total_time)
    }
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No stage could make progress but the mini-batch is unfinished —
    /// the schedule policy is incorrect for this job shape.
    Deadlock {
        /// Stages that still have unfinished backwards.
        unfinished_stages: Vec<usize>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { unfinished_stages } => {
                write!(
                    f,
                    "pipeline deadlock; unfinished stages: {unfinished_stages:?}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A queued emulator event. Payloads are slot indices (`r * p + s`): the
/// op an `OpDone` completes, and its start time, live in the slot itself,
/// since a busy slot has exactly one `OpDone` pending.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The slot's running op finished.
    OpDone(u32),
    /// An activation reached the slot from the previous stage.
    ActArrive(u32),
    /// Micro-batch `.1`'s gradient reached the slot from the next stage.
    GradArrive(u32, u32),
    /// The slot's blocking send finished.
    SendDone(u32),
}

/// A message path from one `(stage, replica)` to a neighbouring stage of
/// the same replica, resolved once per run: the topology, placement and
/// jitter lookups a transfer needs.
#[derive(Debug, Clone, Copy)]
struct Route {
    /// The sender's node, whose NIC carries the flow when `cross`.
    node: usize,
    /// Whether the path leaves the node (and so contends for its NIC).
    cross: bool,
    latency: f64,
    bandwidth: f64,
    /// Sender-side capacity shared by concurrent flows.
    bottleneck: f64,
    bytes: f64,
    jitter: PreparedJitter,
}

impl Route {
    fn new(job: &PlacedJob, s_from: usize, r: usize, s_to: usize, bytes: f64) -> Self {
        let src = job.placement.endpoint(s_from, r);
        let dst = job.placement.endpoint(s_to, r);
        let link = job.topology.link_between(src, dst);
        let cross = !job.topology.same_node(src, dst);
        Route {
            node: job.topology.node_of(src),
            cross,
            latency: link.latency,
            bandwidth: link.bandwidth,
            bottleneck: if cross {
                job.topology.nic_bandwidth()
            } else {
                link.bandwidth
            },
            bytes,
            jitter: PreparedJitter::new(&link.jitter),
        }
    }

    /// Computes (total delivery delay, serialization time) of one message,
    /// taking a NIC slot for a cross-node flow (contention is sampled at
    /// send time; [`Route::deliver`] releases it).
    fn send(&self, inflight: &mut [usize], rng: &mut StdRng) -> (f64, f64) {
        let flows = if self.cross {
            inflight[self.node] += 1;
            inflight[self.node]
        } else {
            1
        };
        let bw = self.bandwidth.min(fair_share(self.bottleneck, flows));
        let ser = self.bytes / bw;
        let jitter = self.jitter.sample(rng);
        (self.latency + jitter + ser, ser)
    }

    /// Releases the NIC slot a delivered cross-node message held.
    fn deliver(&self, inflight: &mut [usize]) {
        if self.cross {
            inflight[self.node] = inflight[self.node].saturating_sub(1);
        }
    }
}

/// One `(stage, replica)`'s run-time state: a slot of the emulator's arena.
/// Its per-micro-batch flags live in [`Emulator::flags`].
struct Slot {
    stage: usize,
    replica: usize,
    busy: bool,
    forwards_done: usize,
    acts_arrived: usize,
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
    /// The op in flight and when it started (meaningful while busy).
    running: Op,
    started: f64,
    stutter: f64,
    /// Paths to the next stage (activations) and the previous stage
    /// (gradients); `None` at the pipeline's ends.
    to_next: Option<Route>,
    to_prev: Option<Route>,
}

/// How the emulator asks slot `i` (of stage `s`) for its next op.
trait Picker {
    fn pick(&mut self, i: usize, s: usize, view: &StageView<'_>) -> Option<Op>;
}

/// One boxed policy per slot, built by a [`PolicyFactory`].
struct Boxed(Vec<Box<dyn SchedulePolicy>>);

impl Picker for Boxed {
    fn pick(&mut self, i: usize, _s: usize, view: &StageView<'_>) -> Option<Op> {
        self.0[i].pick(view)
    }
}

/// [`Boxed`] policies that record each stage's picks. The emulator starts
/// every op its picker returns, so the record is each stage's op order.
struct Recording<'o> {
    policies: Boxed,
    orders: &'o mut [Vec<Op>],
}

impl Picker for Recording<'_> {
    fn pick(&mut self, i: usize, s: usize, view: &StageView<'_>) -> Option<Op> {
        let op = self.policies.pick(i, s, view)?;
        self.orders[s].push(op);
        Some(op)
    }
}

/// The built-in opportunistic Varuna policy, dispatched directly: every
/// replica borrows its stage's order, and each slot's progress (its
/// `executed` flags and cursor) lives in one arena.
struct Varuna<'a> {
    stages: Vec<StageOrder<'a>>,
    /// Start of slot `i`'s flags in `executed`.
    offset: Vec<usize>,
    executed: Vec<bool>,
    cursor: Vec<usize>,
}

impl<'a> Varuna<'a> {
    fn new(schedule: &'a StaticSchedule, p: usize, d: usize) -> Self {
        let stages: Vec<StageOrder<'a>> = (0..p).map(|s| StageOrder::new(schedule, s)).collect();
        let mut offset = Vec::with_capacity(p * d);
        let mut total = 0;
        for _ in 0..d {
            for stage in &stages {
                offset.push(total);
                total += stage.len();
            }
        }
        Varuna {
            stages,
            offset,
            executed: vec![false; total],
            cursor: vec![0; p * d],
        }
    }
}

impl Picker for Varuna<'_> {
    fn pick(&mut self, i: usize, s: usize, view: &StageView<'_>) -> Option<Op> {
        let order = &self.stages[s];
        let at = self.offset[i];
        order.pick(
            &mut self.executed[at..at + order.len()],
            &mut self.cursor[i],
            view,
        )
    }
}

/// Simulates one mini-batch of `job` under the schedule produced by
/// `policies`.
///
/// This is the bus-free entry point: it runs
/// [`simulate_minibatch_on_bus`] over a private, sink-less [`EventBus`].
/// Callers that need per-op spans run the `_on_bus` entry point with a
/// [`varuna_obs::VecSink`] attached and call [`varuna_obs::profile::spans`]
/// on the captured events.
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the policy wedges the pipeline.
pub fn simulate_minibatch(
    job: &PlacedJob,
    policies: &PolicyFactory<'_>,
    opts: &SimOptions,
) -> Result<MinibatchResult, SimError> {
    simulate_minibatch_on_bus(job, policies, opts, &mut EventBus::new())
}

/// Simulates one mini-batch, reporting every op, transfer, and allreduce
/// through `bus` as [`varuna_obs::Event`]s (source `Exec`).
///
/// With no enabled sink attached, event payloads are never constructed
/// and the emulator runs within noise of its bus-free wall-clock.
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the policy wedges the pipeline.
pub fn simulate_minibatch_on_bus(
    job: &PlacedJob,
    policies: &PolicyFactory<'_>,
    opts: &SimOptions,
    bus: &mut EventBus,
) -> Result<MinibatchResult, SimError> {
    job.validate();
    let p = job.p();
    let boxed = (0..job.d)
        .flat_map(|r| (0..p).map(move |s| (s, r)))
        .map(|(s, r)| policies(s, r))
        .collect();
    Emulator::new(job, Boxed(boxed), opts, bus).run()
}

/// Simulates one mini-batch under Varuna's opportunistic policy replaying
/// `schedule` on every replica.
///
/// Same result as [`simulate_minibatch`] with a factory handing every
/// `(stage, replica)` a `VarunaPolicy::for_stage(schedule, stage)`, bit for
/// bit, but the policy is dispatched directly, with no boxed policy or copy
/// of the order per `(stage, replica)`.
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the schedule wedges the pipeline.
pub fn simulate_schedule(
    job: &PlacedJob,
    schedule: &StaticSchedule,
    opts: &SimOptions,
) -> Result<MinibatchResult, SimError> {
    simulate_schedule_on_bus(job, schedule, opts, &mut EventBus::new())
}

/// [`simulate_schedule`] reporting through `bus`: the same events as
/// [`simulate_minibatch_on_bus`] with `VarunaPolicy::for_stage` policies.
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the schedule wedges the pipeline.
pub fn simulate_schedule_on_bus(
    job: &PlacedJob,
    schedule: &StaticSchedule,
    opts: &SimOptions,
    bus: &mut EventBus,
) -> Result<MinibatchResult, SimError> {
    job.validate();
    let varuna = Varuna::new(schedule, job.p(), job.d);
    Emulator::new(job, varuna, opts, bus).run()
}

/// [`simulate_schedule`] that gives up once the run provably cannot finish
/// by `cutoff` seconds: `Ok(None)` when it was abandoned, else the same
/// result as [`simulate_schedule`], bit for bit.
///
/// At each op completion the slot's remaining serial forward and backward
/// compute, plus its stage's sync tail, is a lower bound on the mini-batch
/// time (see [`lower_bound`]); the run is abandoned when that bound passes
/// `cutoff`. A run that completes may still end after `cutoff`: only the
/// bound is checked. The bound holds only at zero compute jitter, so the
/// run always uses [`SimOptions::deterministic`].
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the schedule wedges the pipeline
/// before the cutoff is reached.
pub fn simulate_schedule_within(
    job: &PlacedJob,
    schedule: &StaticSchedule,
    cutoff: f64,
) -> Result<Option<MinibatchResult>, SimError> {
    job.validate();
    let varuna = Varuna::new(schedule, job.p(), job.d);
    let opts = SimOptions::deterministic();
    Emulator::new(job, varuna, &opts, &mut EventBus::new()).run_within(Some(cutoff))
}

/// A lower bound on the `total_time` of any zero-jitter run of `job`,
/// whatever its schedule, computed before any event fires: each
/// `(stage, replica)` runs its `N_m` forwards and backwards one after
/// another at its stutter-scaled times, and its stage's sync tail
/// (allreduce, tied-parameter sync, offload) follows its last backward.
/// Recompute is left out (it is skipped while activations are live, and
/// the last stage never runs it), as are network delays; both only add
/// time.
pub fn lower_bound(job: &PlacedJob) -> f64 {
    let n = job.n_micro as f64;
    sync_tails(job)
        .iter()
        .zip(&job.stages)
        .enumerate()
        .map(|(s, (tail, spec))| {
            let stutter = (0..job.d).map(|r| job.stutter_of(s, r)).fold(0.0, f64::max);
            stutter * n * (spec.fwd_time + spec.bwd_time) * ROUNDING_MARGIN + tail.total
        })
        .fold(0.0, f64::max)
}

/// Shrinks a serial-compute bound so that it stays below the emulator's
/// clock, which accumulates op durations one addition at a time: the
/// relative rounding error of that sum is under `ops · 2^-53`, far below
/// this margin for any mini-batch the emulator can hold.
const ROUNDING_MARGIN: f64 = 1.0 - 1e-9;

/// One stage's end-of-mini-batch sync after its last backward.
#[derive(Debug, Clone, Copy)]
struct SyncTail {
    /// The data-parallel gradient allreduce, seconds.
    allreduce: f64,
    /// The allreduce plus the tied-parameter sync and the optimizer
    /// offload, seconds.
    total: f64,
}

/// Every stage's sync tail: a function of the job alone, so the bound,
/// the cutoff and the end of a run share it.
fn sync_tails(job: &PlacedJob) -> Vec<SyncTail> {
    let (p, d) = (job.p(), job.d);
    // How many job endpoints share each node (concurrent allreduce rings
    // contending for one NIC).
    let mut per_node = vec![0usize; job.topology.num_nodes()];
    for r in 0..d {
        for s in 0..p {
            per_node[job.topology.node_of(job.placement.endpoint(s, r))] += 1;
        }
    }
    (0..p)
        .map(|s| {
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
            let allreduce = allreduce_time(
                AllreduceSpec {
                    bytes: job.stages[s].grad_bytes,
                    ring_size: d,
                    in_flight,
                },
                link,
            );
            let mut total = allreduce;
            // Tied-parameter sync between the first and last stage of each
            // replica (ring of 2 over the inter-stage link).
            if job.shared_sync_bytes > 0.0 && p > 1 && (s == 0 || s == p - 1) {
                let e0 = job.placement.endpoint(0, 0);
                let e1 = job.placement.endpoint(p - 1, 0);
                let link01 = job.topology.link_between(e0, e1);
                total += allreduce_time(
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
                total += bytes / 12.0e9;
            }
            SyncTail { allreduce, total }
        })
        .collect()
}

/// Renders the schedule `factory`'s policies produce for `p` stages and
/// `n_micro` micro-batches at unit times (`F = R = 1`, `B = 2`, zero
/// network latency, a stash window of `window` on every stage): the
/// emulator run on a unit-time job of one replica, recording the order in
/// which each stage starts its ops. The makespan is the last backward's
/// completion. Pass `recompute = false` for disciplines that store
/// activations instead of rematerializing them (PipeDream).
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the policies wedge the pipeline.
///
/// # Panics
///
/// Panics if any size argument is zero or a policy picks an illegal op.
pub fn render_unit_schedule(
    p: usize,
    n_micro: usize,
    window: usize,
    recompute: bool,
    factory: &PolicyFactory<'_>,
) -> Result<StaticSchedule, SimError> {
    assert!(p >= 1 && n_micro >= 1 && window >= 1, "zero size argument");
    let unit = StageSpec {
        fwd_time: 1.0,
        bwd_time: 2.0,
        recompute_time: 1.0,
        act_bytes: 0.0,
        grad_bytes: 0.0,
        params: 0,
        layers: 0,
        stash_window: window,
    };
    let ideal = Link {
        bandwidth: f64::INFINITY,
        latency: 0.0,
        jitter: JitterModel::NONE,
        ..Link::pcie()
    };
    let job = PlacedJob {
        stages: vec![unit; p],
        d: 1,
        m: 1,
        n_micro,
        topology: Topology::new(p, 1, ideal, ideal, f64::INFINITY),
        placement: Placement::one_stage_per_gpu(p, 1),
        shared_sync_bytes: 0.0,
        offload_bytes: None,
        stutter: Vec::new(),
    };
    let opts = SimOptions {
        recompute,
        ..SimOptions::deterministic()
    };
    let mut per_stage = vec![Vec::new(); p];
    let picker = Recording {
        policies: Boxed((0..p).map(|s| factory(s, 0)).collect()),
        orders: &mut per_stage,
    };
    let res = Emulator::new(&job, picker, &opts, &mut EventBus::new()).run()?;
    Ok(StaticSchedule {
        p,
        n_micro,
        per_stage,
        makespan: res.stage_finish.iter().copied().fold(0.0, f64::max),
    })
}

/// The event loop of one mini-batch.
///
/// Bit-identity with every earlier version rests on three invariants:
/// events pop in exact `(time, insertion seq)` order; the RNG is drawn in
/// the same order (compute noise at dispatch, then link jitter per send);
/// and a busy slot has exactly one pending `OpDone`.
struct Emulator<'a, P> {
    job: &'a PlacedJob,
    opts: &'a SimOptions,
    bus: &'a mut EventBus,
    picker: P,
    p: usize,
    n: usize,
    slots: Vec<Slot>,
    /// Per slot, `3n` flags: gradient ready, recompute done and backward
    /// done, each indexed by micro-batch.
    flags: Vec<bool>,
    q: EventQueue<Ev>,
    /// In-flight inter-node flows per node, for NIC fair sharing.
    inflight: Vec<usize>,
    rng: StdRng,
}

impl<'a, P: Picker> Emulator<'a, P> {
    fn new(job: &'a PlacedJob, picker: P, opts: &'a SimOptions, bus: &'a mut EventBus) -> Self {
        let p = job.p();
        let d = job.d;
        let n = job.n_micro;
        u32::try_from(p * d).expect("slot index fits an event payload");
        u32::try_from(n).expect("micro-batch index fits an event payload");
        let mut slots = Vec::with_capacity(p * d);
        for r in 0..d {
            for s in 0..p {
                slots.push(Slot {
                    stage: s,
                    replica: r,
                    busy: false,
                    forwards_done: 0,
                    acts_arrived: if s == 0 { n } else { 0 },
                    backwards_count: 0,
                    live_acts: None,
                    pending_recompute: None,
                    stash_len: 0,
                    peak_stash: 0,
                    window: opts
                        .stash_window_override
                        .unwrap_or(job.stages[s].stash_window)
                        .max(1),
                    last_bwd_end: 0.0,
                    busy_time: 0.0,
                    chan_act_last: 0.0,
                    chan_grad_last: 0.0,
                    running: Op::new(OpKind::Forward, 0),
                    started: 0.0,
                    stutter: job.stutter_of(s, r),
                    to_next: (s + 1 < p)
                        .then(|| Route::new(job, s, r, s + 1, job.stages[s].act_bytes)),
                    to_prev: (s > 0)
                        .then(|| Route::new(job, s, r, s - 1, job.stages[s - 1].act_bytes)),
                });
            }
        }
        Emulator {
            job,
            opts,
            bus,
            picker,
            p,
            n,
            slots,
            flags: vec![false; 3 * n * p * d],
            q: EventQueue::new(),
            inflight: vec![0; job.topology.num_nodes()],
            rng: StdRng::seed_from_u64(opts.seed),
        }
    }

    /// Starts slot `i`'s next op, if it is idle and its policy picks one.
    fn dispatch(&mut self, i: usize, now: f64) {
        let n = self.n;
        let slot = &self.slots[i];
        if slot.busy {
            return;
        }
        let (s, r) = (slot.stage, slot.replica);
        let flags = &self.flags[3 * n * i..3 * n * (i + 1)];
        let view = StageView {
            stage: s,
            p: self.p,
            last_stage: s == self.p - 1,
            n_micro: n,
            forwards_done: slot.forwards_done,
            next_forward_ready: slot.forwards_done < slot.acts_arrived
                && slot.stash_len < slot.window,
            grads_ready: &flags[..n],
            recomputes_done: &flags[n..2 * n],
            backwards_done: &flags[2 * n..],
            live_acts: slot.live_acts,
            pending_recompute: slot.pending_recompute,
            stash_len: slot.stash_len,
            stash_window: slot.window,
            recompute_enabled: self.opts.recompute,
        };
        let Some(op) = self.picker.pick(i, s, &view) else {
            return;
        };
        assert!(
            view.is_legal(op),
            "policy picked illegal op {op:?} at stage {s} replica {r}"
        );
        let spec = &self.job.stages[s];
        // Mean-preserving lognormal kernel-time variation.
        let noise = if self.opts.compute_jitter > 0.0 {
            let sigma = self.opts.compute_jitter;
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (sigma * normal - sigma * sigma / 2.0).exp()
        } else {
            1.0
        };
        let slot = &mut self.slots[i];
        let dur = slot.stutter
            * noise
            * match op.kind {
                OpKind::Forward => spec.fwd_time,
                OpKind::Recompute => spec.recompute_time,
                OpKind::Backward => spec.bwd_time,
            };
        // Starting any op invalidates live activations unless the op is
        // the backward consuming them.
        if !(op.kind == OpKind::Backward && slot.live_acts == Some(op.micro)) {
            slot.live_acts = None;
        }
        slot.busy = true;
        slot.busy_time += dur;
        slot.running = op;
        slot.started = now;
        self.q.push(now + dur, Ev::OpDone(i as u32));
        self.bus.emit_with(|| {
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

    /// Sends slot `i`'s output for `micro` to the neighbouring stage of
    /// its replica (activations forward, else gradients back) and, under
    /// blocking sends, holds slot `i` busy for the serialization time.
    fn send(&mut self, i: usize, forward: bool, micro: usize, now: f64) {
        let slot = &self.slots[i];
        let (s, r) = (slot.stage, slot.replica);
        let (route, j, to_stage) = if forward {
            (&slot.to_next, i + 1, s + 1)
        } else {
            (&slot.to_prev, i - 1, s - 1)
        };
        let route = route.as_ref().expect("the neighbouring stage exists");
        let bytes = route.bytes;
        let (delay, ser) = route.send(&mut self.inflight, &mut self.rng);
        self.bus.emit_with(|| {
            Event::exec(
                now,
                EventKind::Transfer {
                    from_stage: s,
                    to_stage,
                    replica: r,
                    micro,
                    bytes,
                    seconds: delay,
                },
            )
        });
        let dst = &mut self.slots[j];
        let chan = if forward {
            &mut dst.chan_act_last
        } else {
            &mut dst.chan_grad_last
        };
        let arrive = (now + delay).max(*chan + 1e-9);
        *chan = arrive;
        let ev = if forward {
            Ev::ActArrive(j as u32)
        } else {
            Ev::GradArrive(j as u32, micro as u32)
        };
        self.q.push(arrive, ev);
        if self.opts.blocking_sends {
            let slot = &mut self.slots[i];
            slot.busy = true;
            slot.busy_time += ser;
            self.bus.emit_with(|| {
                Event::exec(
                    now,
                    EventKind::SendBusy {
                        stage: s,
                        replica: r,
                        micro,
                        seconds: ser,
                    },
                )
            });
            self.q.push(now + ser, Ev::SendDone(i as u32));
        }
    }

    /// Handles slot `i`'s finished op.
    fn op_done(&mut self, i: usize, now: f64) {
        let (p, n) = (self.p, self.n);
        let slot = &self.slots[i];
        let (s, r, op, started) = (slot.stage, slot.replica, slot.running, slot.started);
        // One `OpEnd` per finished op, in completion order: the span list
        // `varuna_obs::profile::spans` rebuilds from a captured stream.
        self.bus.emit_with(|| {
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
        let flags = 3 * n * i;
        let slot = &mut self.slots[i];
        slot.busy = false;
        match op.kind {
            OpKind::Forward => {
                slot.forwards_done += 1;
                slot.stash_len += 1;
                slot.peak_stash = slot.peak_stash.max(slot.stash_len);
                slot.live_acts = Some(op.micro);
                if s == p - 1 {
                    // Loss gradient is locally available.
                    self.flags[flags + op.micro] = true;
                } else {
                    self.send(i, true, op.micro, now);
                }
            }
            OpKind::Recompute => {
                self.flags[flags + n + op.micro] = true;
                slot.pending_recompute = Some(op.micro);
                slot.live_acts = Some(op.micro);
            }
            OpKind::Backward => {
                self.flags[flags + 2 * n + op.micro] = true;
                slot.backwards_count += 1;
                slot.stash_len = slot.stash_len.saturating_sub(1);
                if slot.pending_recompute == Some(op.micro) {
                    slot.pending_recompute = None;
                }
                slot.live_acts = None;
                slot.last_bwd_end = now;
                if s > 0 {
                    self.send(i, false, op.micro, now);
                }
            }
        }
        if !self.slots[i].busy {
            self.dispatch(i, now);
        }
    }

    /// Whether slot `i`, whose op just finished at `now`, can no longer
    /// end its stage's sync tail by `limit`: its remaining serial compute
    /// (see [`lower_bound`]) already runs past it.
    fn past(&self, i: usize, now: f64, limit: f64, tails: &[SyncTail]) -> bool {
        let slot = &self.slots[i];
        let spec = &self.job.stages[slot.stage];
        let left = slot.stutter
            * (self.n.saturating_sub(slot.forwards_done) as f64 * spec.fwd_time
                + self.n.saturating_sub(slot.backwards_count) as f64 * spec.bwd_time);
        (now + left) * ROUNDING_MARGIN + tails[slot.stage].total > limit
    }

    fn run(self) -> Result<MinibatchResult, SimError> {
        Ok(self
            .run_within(None)?
            .expect("a run without a cutoff is never abandoned"))
    }

    /// Runs the mini-batch; with a `cutoff`, returns `Ok(None)` as soon as
    /// an op completion shows it cannot finish by then.
    fn run_within(mut self, cutoff: Option<f64>) -> Result<Option<MinibatchResult>, SimError> {
        let (job, p, d, n) = (self.job, self.p, self.job.d, self.n);
        let tails = sync_tails(job);
        // Kick off all first-stage (and trivially-ready) dispatches.
        for i in 0..p * d {
            self.dispatch(i, 0.0);
        }
        let mut last_time = 0.0;
        while let Some((now, ev)) = self.q.pop() {
            last_time = now;
            match ev {
                Ev::OpDone(i) => {
                    let i = i as usize;
                    self.op_done(i, now);
                    if cutoff.is_some_and(|limit| self.past(i, now, limit, &tails)) {
                        return Ok(None);
                    }
                }
                Ev::ActArrive(j) => {
                    let j = j as usize;
                    let from = self.slots[j - 1].to_next.as_ref();
                    from.expect("sent along a route")
                        .deliver(&mut self.inflight);
                    self.slots[j].acts_arrived += 1;
                    self.dispatch(j, now);
                }
                Ev::GradArrive(j, mb) => {
                    let j = j as usize;
                    let from = self.slots[j + 1].to_prev.as_ref();
                    from.expect("sent along a route")
                        .deliver(&mut self.inflight);
                    self.flags[3 * n * j + mb as usize] = true;
                    self.dispatch(j, now);
                }
                Ev::SendDone(i) => {
                    let i = i as usize;
                    self.slots[i].busy = false;
                    self.dispatch(i, now);
                }
            }
        }
        let st = &self.slots;
        let idx = |s: usize, r: usize| r * p + s;

        if st.iter().any(|slot| slot.backwards_count != n) {
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

        let mut allreduce = vec![0.0f64; p];
        let mut total_time: f64 = pipeline_time;
        for (s, tail) in tails.iter().enumerate() {
            let ar = tail.allreduce;
            allreduce[s] = ar;
            if d > 1 {
                self.bus.emit_with(|| {
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
            total_time = total_time.max(stage_finish[s] + tail.total);
        }
        let sync_tail = total_time - pipeline_time;

        Ok(Some(MinibatchResult {
            total_time,
            pipeline_time,
            sync_tail,
            peak_stash,
            busy_time,
            stage_finish,
            allreduce,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
    use varuna_net::Topology;
    use varuna_obs::{profile::spans, VecSink};
    use varuna_sched::policy::GreedyPolicy;

    fn small_job(p: usize, d: usize, n_micro: usize) -> PlacedJob {
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_2_5b());
        PlacedJob::uniform_from_graph(
            &graph,
            &GpuModel::v100(),
            p,
            d,
            2,
            n_micro,
            Topology::commodity_1gpu(p * d),
            Placement::one_stage_per_gpu(p, d),
        )
    }

    fn greedy() -> Box<dyn Fn(usize, usize) -> Box<dyn varuna_sched::policy::SchedulePolicy>> {
        Box::new(|_, _| Box::new(GreedyPolicy))
    }

    #[test]
    fn single_stage_runs_all_microbatches_serially() {
        let job = small_job(1, 1, 4);
        // Disable kernel-time noise so the exact-time assertion holds.
        let opts = SimOptions {
            compute_jitter: 0.0,
            ..SimOptions::default()
        };
        let res = simulate_minibatch(&job, &*greedy(), &opts).unwrap();
        // One stage: F then B per micro-batch (live activations, no
        // recompute needed when alternating).
        let expected = 4.0 * (job.stages[0].fwd_time + job.stages[0].bwd_time);
        assert!(
            (res.pipeline_time - expected).abs() / expected < 1e-6,
            "pipeline {} vs expected {expected}",
            res.pipeline_time
        );
        assert_eq!(res.peak_stash, vec![1]);
    }

    #[test]
    fn pipeline_time_exceeds_ideal_by_bubble_only() {
        let job = small_job(4, 1, 16);
        let res = simulate_minibatch(&job, &*greedy(), &SimOptions::default()).unwrap();
        // Ideal per-stage compute: N * (F + R + B) = N * 4F.
        let per_stage = 16.0 * (job.stages[0].fwd_time * 4.0);
        assert!(res.pipeline_time > per_stage);
        // The bubble should be bounded (well under 2x for 16 micro-batches
        // over 4 stages).
        assert!(
            res.pipeline_time < 1.6 * per_stage,
            "pipeline {} vs per-stage work {per_stage}",
            res.pipeline_time
        );
    }

    #[test]
    fn trace_is_complete_and_well_formed() {
        let job = small_job(3, 1, 5);
        let tape = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(tape.clone()));
        simulate_minibatch_on_bus(&job, &*greedy(), &SimOptions::default(), &mut bus).unwrap();
        let trace = spans(&tape.take());
        // Forwards and backwards: n per stage. Last stage never recomputes
        // under the greedy policy (alternating F/B keeps activations live).
        let fwd = trace.iter().filter(|t| t.op == 'F').count();
        let bwd = trace.iter().filter(|t| t.op == 'B').count();
        assert_eq!(fwd, 3 * 5);
        assert_eq!(bwd, 3 * 5);
        let last_stage_rec = trace.iter().filter(|t| t.stage == 2 && t.op == 'R').count();
        assert_eq!(last_stage_rec, 0, "last stage must not recompute");
        // Spans on one GPU never overlap.
        let mut stage1: Vec<_> = trace.iter().filter(|t| t.stage == 1).collect();
        stage1.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in stage1.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let job = small_job(4, 2, 8);
        let a = simulate_minibatch(&job, &*greedy(), &SimOptions::default()).unwrap();
        let b = simulate_minibatch(&job, &*greedy(), &SimOptions::default()).unwrap();
        assert_eq!(a.total_time, b.total_time);
        let c = simulate_minibatch(
            &job,
            &*greedy(),
            &SimOptions {
                seed: 99,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_ne!(
            a.total_time, c.total_time,
            "different jitter seeds must differ"
        );
    }

    #[test]
    fn data_parallel_adds_allreduce_tail() {
        let j1 = small_job(4, 1, 8);
        let j4 = small_job(4, 4, 8);
        let r1 = simulate_minibatch(&j1, &*greedy(), &SimOptions::default()).unwrap();
        let r4 = simulate_minibatch(&j4, &*greedy(), &SimOptions::default()).unwrap();
        assert_eq!(r1.allreduce, vec![0.0; 4], "D=1 needs no allreduce");
        assert!(r4.allreduce.iter().all(|&t| t > 0.0));
        assert!(r4.sync_tail > 0.0);
    }

    #[test]
    fn stash_window_backpressure_limits_peak_stash() {
        let job = small_job(4, 1, 12);
        let opts = SimOptions {
            stash_window_override: Some(2),
            ..SimOptions::default()
        };
        let res = simulate_minibatch(&job, &*greedy(), &opts).unwrap();
        assert!(
            res.peak_stash.iter().all(|&s| s <= 2),
            "stash {:?}",
            res.peak_stash
        );
    }

    #[test]
    fn stutter_slows_the_whole_pipeline() {
        let mut job = small_job(4, 1, 8);
        let base = simulate_minibatch(&job, &*greedy(), &SimOptions::default()).unwrap();
        job.stutter = vec![1.0, 1.0, 1.3, 1.0];
        let slow = simulate_minibatch(&job, &*greedy(), &SimOptions::default()).unwrap();
        assert!(
            slow.pipeline_time > 1.1 * base.pipeline_time,
            "one 30% stutterer should slow the sync pipeline"
        );
    }

    #[test]
    fn blocking_sends_are_slower() {
        let job = small_job(4, 1, 16);
        let a = simulate_minibatch(&job, &*greedy(), &SimOptions::default()).unwrap();
        let b = simulate_minibatch(
            &job,
            &*greedy(),
            &SimOptions {
                blocking_sends: true,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert!(b.pipeline_time > a.pipeline_time);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let job = small_job(4, 1, 16);
        let res = simulate_minibatch(&job, &*greedy(), &SimOptions::default()).unwrap();
        let u = res.utilization();
        assert!(u > 0.3 && u <= 1.0, "utilization {u}");
    }
}
