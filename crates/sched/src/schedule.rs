//! Varuna's pipeline schedule (paper §3.2).
//!
//! A **static rule-based schedule** is planned offline for a pipeline,
//! enforcing the paper's three constraints:
//!
//! 1. recompute for micro-batch `m` at stage `k` is timed so it completes
//!    just as `m`'s gradient arrives from stage `k+1` (lead time `> T_f`);
//! 2. once a recompute finishes, the stage unconditionally waits for the
//!    corresponding backward (a forward would double activation memory);
//! 3. when both a forward and a backward are ready, the backward wins.
//!
//! The rules live in one place, the event-driven kernel
//! [`varuna_schedule`], which takes per-stage forward and backward times,
//! boundary delays and stash windows. The planner feeds it calibrated
//! times (`varuna::simulator::plan_schedule`); [`generate_schedule`] is
//! the same kernel at unit times (`F = R = 1`, `B = 2`, zero network
//! latency). Its events are ordered by the [`EventQueue`] in
//! [`crate::queue`].
//!
//! Any other [`SchedulePolicy`] is rendered under that unit-time model by
//! the `varuna-exec` emulator (`render_unit_schedule`): GPipe's Figure 4
//! schedule is [`crate::policy::GPipePolicy`] run there, since GPipe's
//! reverse-order backwards do not fit the kernel's FIFO gradients.
//!
//! At run time each stage follows its static order, but when the
//! designated op is blocked (gradients delayed by network jitter) the
//! stage **opportunistically** runs a later forward instead — the
//! work-conserving deviation that makes Varuna jitter-tolerant where GPipe
//! and 1F1B stall.

use serde::{Deserialize, Serialize};

use crate::op::{Op, OpKind};
use crate::policy::{SchedulePolicy, StageView};
use crate::queue::EventQueue;
use crate::stage::StageState;

/// An offline-enumerated schedule: one ordered op list per stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticSchedule {
    /// Pipeline depth.
    pub p: usize,
    /// Micro-batches per mini-batch.
    pub n_micro: usize,
    /// Per-stage op order.
    pub per_stage: Vec<Vec<Op>>,
    /// Makespan of the order, in the units of the times it was planned
    /// with: unit time (`F = R = 1`, `B = 2`) for [`generate_schedule`]
    /// and the emulator's `render_unit_schedule`, seconds for a schedule
    /// planned from calibrated times (`varuna::simulator::plan_schedule`).
    pub makespan: f64,
}

/// Generates the Varuna static schedule for `p` stages and `n_micro`
/// micro-batches with activation-stash window `window`: the
/// [`varuna_schedule`] kernel at unit times (`F = R = 1`, `B = 2`, zero
/// network latency, window `window` on every stage).
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn generate_schedule(p: usize, n_micro: usize, window: usize) -> StaticSchedule {
    assert!(p >= 1 && n_micro >= 1 && window >= 1);
    varuna_schedule(
        &vec![1.0; p],
        &vec![2.0; p],
        &vec![0.0; p - 1],
        &vec![window; p],
        n_micro,
    )
    .0
}

/// Plans the Varuna schedule event-driven from per-stage times: forward
/// times `fwd` (a recompute re-runs the forward at the same cost),
/// backward times `bwd`, the transfer delay across each stage boundary
/// `delay` (`delay[s]` between stages `s` and `s + 1`), per-stage
/// activation-stash windows `window`, and `n_micro` micro-batches.
///
/// Returns the schedule, whose makespan is the last backward's
/// completion, and each stage's last-backward completion time.
/// `O(P · N_m log)` — fast enough to re-plan on every preemption (§7.2).
///
/// # Panics
///
/// Panics if the slices' lengths disagree, or if the rules wedge (a zero
/// window).
pub fn varuna_schedule(
    fwd: &[f64],
    bwd: &[f64],
    delay: &[f64],
    window: &[usize],
    n_micro: usize,
) -> (StaticSchedule, Vec<f64>) {
    let p = fwd.len();
    assert!(
        bwd.len() == p && window.len() == p && delay.len() == p.saturating_sub(1),
        "one time and window per stage, one delay per boundary"
    );
    let mut kernel = Kernel {
        fwd,
        bwd,
        delay,
        stages: (0..p)
            .map(|s| KernelStage {
                state: StageState::new(s, p, n_micro, window[s], true),
                rec_open: vec![false; n_micro],
                running: None,
                last_bwd: 0.0,
                order: Vec::with_capacity(3 * n_micro),
            })
            .collect(),
        q: EventQueue::new(),
    };
    for s in 0..p {
        kernel.q.push(0.0, Ev::Free(s));
    }
    kernel.run();
    let done: usize = kernel.stages.iter().map(|s| s.state.backwards_done()).sum();
    assert_eq!(
        done,
        p * n_micro,
        "schedule kernel wedged: {done}/{} backwards",
        p * n_micro
    );
    let makespan = kernel.stages.iter().map(|s| s.last_bwd).fold(0.0, f64::max);
    let mut finish = Vec::with_capacity(p);
    let mut per_stage = Vec::with_capacity(p);
    for s in kernel.stages {
        finish.push(s.last_bwd);
        per_stage.push(s.order);
    }
    let schedule = StaticSchedule {
        p,
        n_micro,
        per_stage,
        makespan,
    };
    (schedule, finish)
}

/// An event of [`varuna_schedule`]'s loop.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A stage finished its current op.
    Free(usize),
    /// The next forward input arrived at a stage.
    Act(usize),
    /// Micro-batch `.1`'s gradient arrived at stage `.0`.
    Grad(usize, usize),
    /// Constraint-1 window opened: stage `.0` may recompute micro-batch
    /// `.1`.
    RecWindow(usize, usize),
}

/// One stage of [`varuna_schedule`]'s loop: its [`StageState`] plus the
/// kernel-only constraint-1 windows.
struct KernelStage {
    state: StageState,
    rec_open: Vec<bool>,
    running: Option<Op>,
    last_bwd: f64,
    order: Vec<Op>,
}

/// [`varuna_schedule`]'s inputs and loop state.
struct Kernel<'a> {
    fwd: &'a [f64],
    bwd: &'a [f64],
    delay: &'a [f64],
    stages: Vec<KernelStage>,
    q: EventQueue<Ev>,
}

impl Kernel<'_> {
    /// Drains the event queue.
    fn run(&mut self) {
        let p = self.stages.len();
        while let Some((now, ev)) = self.q.pop() {
            let s = match ev {
                Ev::Free(s) => {
                    // Complete the running op, if any: a stage has one
                    // pending `Free` per op it starts, plus the initial one.
                    let stage = &mut self.stages[s];
                    if let Some(op) = stage.running.take() {
                        stage.state.complete(op);
                        match op.kind {
                            OpKind::Forward if s + 1 < p => {
                                self.q.push(now + self.delay[s], Ev::Act(s + 1));
                            }
                            OpKind::Backward => {
                                stage.last_bwd = now;
                                if s > 0 {
                                    self.q
                                        .push(now + self.delay[s - 1], Ev::Grad(s - 1, op.micro));
                                }
                            }
                            _ => {}
                        }
                    }
                    s
                }
                Ev::Act(s) => {
                    self.stages[s].state.act_arrived();
                    s
                }
                Ev::Grad(s, m) => {
                    self.stages[s].state.grad_arrived(m);
                    s
                }
                Ev::RecWindow(s, m) => {
                    self.stages[s].rec_open[m] = true;
                    s
                }
            };
            self.dispatch(s, now);
        }
    }

    /// Starts at most one op on stage `s` at time `now`, by Varuna's rules.
    fn dispatch(&mut self, s: usize, now: f64) {
        let stage = &self.stages[s];
        if stage.running.is_some() {
            return;
        }
        let v = stage.state.view();
        // Backwards run in FIFO order, so `next_b` is the only candidate.
        let next_b = stage.state.backwards_done();
        // False once every backward has run (`next_b == n_micro`).
        let grad_ready = v.grads_ready.get(next_b) == Some(&true);
        let op = if v.backward_ready(next_b) {
            // Constraint 3: a ready backward always wins; under
            // constraint 2 a finished recompute admits nothing else. The
            // last stage never recomputes: its backward chases its
            // forward while the activations are live.
            Some(Op::new(OpKind::Backward, next_b))
        } else if v.forward_ready() && (v.last_stage || !grad_ready) {
            // Keep the pipe filled: run forwards ahead rather than
            // committing to a recompute whose gradient is not in hand
            // (constraint 2 would then idle the stage) — the same
            // preference the runtime policy's opportunistic deviation
            // expresses.
            Some(Op::new(OpKind::Forward, v.forwards_done))
        } else if !v.last_stage
            && v.recompute_ready(next_b)
            && (stage.rec_open[next_b] || grad_ready)
        {
            Some(Op::new(OpKind::Recompute, next_b))
        } else if v.forward_ready() {
            Some(Op::new(OpKind::Forward, v.forwards_done))
        } else {
            None
        };
        let Some(op) = op else { return };
        let dur = match op.kind {
            OpKind::Forward | OpKind::Recompute => self.fwd[s],
            OpKind::Backward => self.bwd[s],
        };
        let stage = &mut self.stages[s];
        stage.state.start(op);
        stage.running = Some(op);
        stage.order.push(op);
        if op.kind == OpKind::Backward && s > 0 {
            // Constraint 1: open the upstream recompute window so the
            // recompute lands just before this backward's gradient
            // arrives.
            let arrival = now + dur + self.delay[s - 1];
            let open = (arrival - self.fwd[s - 1] - self.fwd[s - 1]).max(now);
            self.q.push(open, Ev::RecWindow(s - 1, op.micro));
        }
        self.q.push(now + dur, Ev::Free(s));
    }
}

/// The run-time policy: follow the static order; when the designated op is
/// blocked, opportunistically run a later forward from the list.
#[derive(Debug, Clone)]
pub struct VarunaPolicy {
    order: Vec<Op>,
    /// Position in `order` of each micro-batch's (first) forward.
    fwd_at: Vec<Option<usize>>,
    executed: Vec<bool>,
    cursor: usize,
    opportunistic: bool,
}

impl VarunaPolicy {
    /// Builds the policy for one stage from the static schedule.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn for_stage(schedule: &StaticSchedule, stage: usize) -> Self {
        let order = schedule.per_stage[stage].clone();
        VarunaPolicy {
            fwd_at: forward_positions(&order),
            executed: vec![false; order.len()],
            order,
            cursor: 0,
            opportunistic: true,
        }
    }

    /// Builds a *strict* variant that never deviates from the static order
    /// — the ablation control for the opportunistic scheduling of §3.2.
    pub fn strict_for_stage(schedule: &StaticSchedule, stage: usize) -> Self {
        let mut p = Self::for_stage(schedule, stage);
        p.opportunistic = false;
        p
    }
}

impl SchedulePolicy for VarunaPolicy {
    fn pick(&mut self, view: &StageView<'_>) -> Option<Op> {
        pick_in_order(
            &self.order,
            &self.fwd_at,
            &mut self.executed,
            &mut self.cursor,
            self.opportunistic,
            view,
        )
    }
}

/// One stage's static order, borrowed, with the position of each
/// micro-batch's first forward: the read-only half of an opportunistic
/// [`VarunaPolicy`], shared by every data-parallel replica of the stage.
///
/// An emulator that keeps each replica's progress (one `executed` flag per
/// order entry, plus a cursor) in its own storage drives the policy through
/// [`StageOrder::pick`] with no per-replica copy of the order and no boxed
/// [`SchedulePolicy`]; the picks are exactly [`VarunaPolicy::for_stage`]'s.
#[derive(Debug, Clone)]
pub struct StageOrder<'a> {
    order: &'a [Op],
    fwd_at: Vec<Option<usize>>,
}

impl<'a> StageOrder<'a> {
    /// Indexes `schedule`'s order for `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn new(schedule: &'a StaticSchedule, stage: usize) -> Self {
        let order = &schedule.per_stage[stage][..];
        StageOrder {
            order,
            fwd_at: forward_positions(order),
        }
    }

    /// Entries in the order: the length of a replica's `executed` flags.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The opportunistic policy's pick for one replica whose progress is
    /// `executed` (one flag per order entry, initially all `false`) and
    /// `cursor` (initially 0).
    #[inline]
    pub fn pick(
        &self,
        executed: &mut [bool],
        cursor: &mut usize,
        view: &StageView<'_>,
    ) -> Option<Op> {
        pick_in_order(self.order, &self.fwd_at, executed, cursor, true, view)
    }
}

/// Position in `order` of each micro-batch's (first) forward.
fn forward_positions(order: &[Op]) -> Vec<Option<usize>> {
    // Forwards run in micro-batch order, so with `F` forwards listed only
    // micro-batches `0..F` can ever be the next legal forward; entries
    // beyond that (or repeats) are never looked up.
    let forwards = order.iter().filter(|o| o.kind == OpKind::Forward).count();
    let mut fwd_at = vec![None; forwards];
    for (i, op) in order.iter().enumerate() {
        if op.kind == OpKind::Forward {
            if let Some(slot) = fwd_at.get_mut(op.micro) {
                slot.get_or_insert(i);
            }
        }
    }
    fwd_at
}

/// The Varuna run-time pick over a stage's static `order`, advancing one
/// replica's `executed` flags and `cursor`.
#[inline]
fn pick_in_order(
    order: &[Op],
    fwd_at: &[Option<usize>],
    executed: &mut [bool],
    cursor: &mut usize,
    opportunistic: bool,
    view: &StageView<'_>,
) -> Option<Op> {
    // Resolve the designated next op, applying run-time corrections for
    // drift between the plan's timing and reality.
    loop {
        while *cursor < order.len() && executed[*cursor] {
            *cursor += 1;
        }
        let &op = order.get(*cursor)?;
        // A planned recompute made redundant (its backward already ran off
        // live activations, or they are live right now) is skipped, and
        // the next op becomes designated.
        if op.kind == OpKind::Recompute
            && (view.backwards_done[op.micro] || view.live_acts == Some(op.micro))
        {
            executed[*cursor] = true;
            continue;
        }
        // A planned backward that was meant to consume live activations
        // but lost them (an opportunistic op ran in between) needs a
        // recompute inserted first.
        if op.kind == OpKind::Backward
            && view.grads_ready[op.micro]
            && !view.backward_ready(op.micro)
            && view.recompute_ready(op.micro)
        {
            return Some(Op::new(OpKind::Recompute, op.micro));
        }
        // The offline schedule timed each recompute to land just before
        // its gradient; at run time jitter can make gradients later than
        // planned, and a recompute that completes with no gradient in hand
        // wedges the stage (constraint 2) — so defer a scheduled recompute
        // until its gradient has arrived.
        let rec_premature = op.kind == OpKind::Recompute && !view.grads_ready[op.micro];
        if !rec_premature && view.is_legal(op) {
            executed[*cursor] = true;
            return Some(op);
        }
        break;
    }
    // The designated op is blocked: opportunistic deviation, restricted to
    // forwards (paper §3.2). The strict ablation variant idles instead.
    // Forwards run in micro-batch order, so the only forward that can be
    // legal is the one for `forwards_done`.
    if !opportunistic || !view.forward_ready() {
        return None;
    }
    let i = fwd_at.get(view.forwards_done).copied().flatten()?;
    if executed[i] {
        return None;
    }
    executed[i] = true;
    Some(order[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts every stage forwards and backpropagates each micro-batch
    /// once and never holds more than `window` stashes.
    fn assert_complete_within(s: &StaticSchedule, window: usize) {
        for (stage, ops) in s.per_stage.iter().enumerate() {
            let f = ops.iter().filter(|o| o.kind == OpKind::Forward).count();
            let b = ops.iter().filter(|o| o.kind == OpKind::Backward).count();
            assert_eq!(f, s.n_micro, "stage {stage} forwards");
            assert_eq!(b, s.n_micro, "stage {stage} backwards");
            let mut outstanding = 0usize;
            for op in ops {
                match op.kind {
                    OpKind::Forward => outstanding += 1,
                    OpKind::Backward => outstanding -= 1,
                    OpKind::Recompute => {}
                }
                assert!(outstanding <= window, "window violated in {ops:?}");
            }
        }
    }

    #[test]
    fn every_stage_schedules_every_microbatch() {
        for (p, n) in [(1, 4), (2, 3), (4, 5), (6, 12)] {
            assert_complete_within(&generate_schedule(p, n, usize::MAX), usize::MAX);
        }
    }

    #[test]
    fn last_stage_never_recomputes() {
        let s = generate_schedule(4, 5, usize::MAX);
        let last = s.per_stage.last().unwrap();
        assert!(
            last.iter().all(|o| o.kind != OpKind::Recompute),
            "paper Figure 4: S4 in Varuna performs no recompute"
        );
        // Interior stages do recompute.
        assert!(s.per_stage[1].iter().any(|o| o.kind == OpKind::Recompute));
    }

    #[test]
    fn backwards_are_fifo_in_varuna() {
        let s = generate_schedule(4, 6, usize::MAX);
        for ops in &s.per_stage {
            let order: Vec<usize> = ops
                .iter()
                .filter(|o| o.kind == OpKind::Backward)
                .map(|o| o.micro)
                .collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted);
        }
    }

    #[test]
    fn makespan_scales_sublinearly_with_pipeline_depth() {
        // The bubble grows with P but amortizes over micro-batches.
        let n = 32;
        let m4 = generate_schedule(4, n, usize::MAX).makespan;
        let m8 = generate_schedule(8, n, usize::MAX).makespan;
        // Ideal per-stage work is n*(F+R+B) = 4n regardless of P; deeper
        // pipelines only add bubble.
        assert!(m8 > m4);
        assert!(
            m8 < 1.3 * m4,
            "deepening 4->8 should cost bubble only ({m4} -> {m8})"
        );
    }

    #[test]
    fn window_limits_forward_runahead() {
        // With a window of 2, no stage's schedule may have more than 2
        // forwards not yet matched by backwards at any prefix.
        assert_complete_within(&generate_schedule(4, 12, 2), 2);
    }

    #[test]
    fn malformed_orders_do_not_panic_the_policy() {
        // Forward 0 listed twice, forward 1 missing, forward 7 beyond the
        // mini-batch: the opportunistic lookup must stay in bounds.
        let f = |m| Op::new(OpKind::Forward, m);
        let schedule = StaticSchedule {
            p: 1,
            n_micro: 2,
            per_stage: vec![vec![f(0), f(0), f(7), Op::new(OpKind::Backward, 0)]],
            makespan: 0.0,
        };
        let mut policy = VarunaPolicy::for_stage(&schedule, 0);
        let no = [false; 2];
        let view = |forwards_done| StageView {
            stage: 0,
            p: 1,
            last_stage: true,
            n_micro: 2,
            forwards_done,
            next_forward_ready: true,
            grads_ready: &no,
            recomputes_done: &no,
            backwards_done: &no,
            live_acts: None,
            pending_recompute: None,
            stash_len: 0,
            stash_window: usize::MAX,
            recompute_enabled: false,
        };
        assert_eq!(policy.pick(&view(0)), Some(f(0)));
        for forwards_done in [1, 2, 7] {
            assert_eq!(policy.pick(&view(forwards_done)), None);
        }
    }

    #[test]
    fn varuna_forwards_are_interspersed_not_bunched() {
        // Figure 4 discussion: Varuna spreads forwards through the
        // schedule (enabling opportunistic scheduling), unlike GPipe.
        let v = generate_schedule(4, 8, usize::MAX);
        let ops = &v.per_stage[1];
        let last_fwd_pos = ops.iter().rposition(|o| o.kind == OpKind::Forward).unwrap();
        let first_bwd_pos = ops.iter().position(|o| o.kind == OpKind::Backward).unwrap();
        assert!(
            last_fwd_pos > first_bwd_pos,
            "forwards should continue after backwards begin"
        );
    }
}
