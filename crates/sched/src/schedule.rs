//! Varuna's pipeline schedule (paper §3.2).
//!
//! A **static rule-based schedule** is enumerated offline for a given
//! pipeline depth and micro-batch count, enforcing the paper's three
//! constraints:
//!
//! 1. recompute for micro-batch `m` at stage `k` is timed so it completes
//!    just as `m`'s gradient arrives from stage `k+1` (lead time `> T_f`);
//! 2. once a recompute finishes, the stage unconditionally waits for the
//!    corresponding backward (a forward would double activation memory);
//! 3. when both a forward and a backward are ready, the backward wins.
//!
//! At run time each stage follows its static order, but when the
//! designated op is blocked (gradients delayed by network jitter) the
//! stage **opportunistically** runs a later forward instead — the
//! work-conserving deviation that makes Varuna jitter-tolerant where GPipe
//! and 1F1B stall.

use serde::{Deserialize, Serialize};

use crate::op::{Op, OpKind};
use crate::policy::{PolicyFactory, SchedulePolicy, StageView};

/// Which offline discipline to enumerate (GPipe is included so Figure 4
/// can be regenerated from the same simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// Varuna's rules (constraints 1-3 above).
    Varuna,
    /// GPipe: all forwards, then reverse-order recompute+backward.
    GPipe,
}

/// An offline-enumerated schedule: one ordered op list per stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticSchedule {
    /// Pipeline depth.
    pub p: usize,
    /// Micro-batches per mini-batch.
    pub n_micro: usize,
    /// Per-stage op order.
    pub per_stage: Vec<Vec<Op>>,
    /// Idealized makespan in forward-pass units (B = 2F, R = F, zero
    /// network latency).
    pub makespan: f64,
}

/// Generates the Varuna static schedule for `p` stages and `n_micro`
/// micro-batches with activation-stash window `window`.
pub fn generate_schedule(p: usize, n_micro: usize, window: usize) -> StaticSchedule {
    enumerate(p, n_micro, window, Discipline::Varuna)
}

/// Enumerates a schedule under either discipline using a unit-time global
/// simulation (`F = R = 1`, `B = 2`, zero latency).
pub fn enumerate(p: usize, n_micro: usize, window: usize, disc: Discipline) -> StaticSchedule {
    assert!(p >= 1 && n_micro >= 1 && window >= 1);
    const F: f64 = 1.0;
    const R: f64 = 1.0;
    const B: f64 = 2.0;

    struct St {
        free_at: f64,
        fwd_done: usize,
        fwd_end: Vec<f64>,
        bwd_done: Vec<bool>,
        bwd_start: Vec<f64>,
        bwd_end: Vec<f64>,
        rec_done: Vec<bool>,
        pending_rec: Option<usize>,
        live: Option<usize>,
        stash: usize,
        order: Vec<Op>,
    }

    let mut st: Vec<St> = (0..p)
        .map(|_| St {
            free_at: 0.0,
            fwd_done: 0,
            fwd_end: vec![f64::INFINITY; n_micro],
            bwd_done: vec![false; n_micro],
            bwd_start: vec![f64::INFINITY; n_micro],
            bwd_end: vec![f64::INFINITY; n_micro],
            rec_done: vec![false; n_micro],
            pending_rec: None,
            live: None,
            stash: 0,
            order: Vec::with_capacity(3 * n_micro),
        })
        .collect();

    // Time-stepped global simulation: at each step, dispatch on every free
    // stage; advance time to the next completion.
    let mut now = 0.0f64;
    let total_backwards = p * n_micro;
    let mut done = 0usize;
    // A guard against rule bugs (the schedule must terminate).
    let mut guard = 0usize;
    while done < total_backwards {
        guard += 1;
        assert!(
            guard < 100 * total_backwards + 100,
            "schedule enumeration diverged"
        );
        // Dispatch every stage that is free at `now`.
        for s in 0..p {
            if st[s].free_at > now {
                continue;
            }
            let last = s == p - 1;
            // Gradient for micro-batch m is available at stage s when
            // stage s+1's backward ended (zero-latency offline model); for
            // the last stage, when its own forward ended.
            let grad_ready = |st: &[St], m: usize| -> bool {
                if last {
                    st[s].fwd_end[m] <= now
                } else {
                    st[s + 1].bwd_end[m] <= now
                }
            };
            let op = {
                let stage = &st[s];
                // Constraint 2: a finished recompute commits the stage.
                if let Some(m) = stage.pending_rec {
                    if grad_ready(&st, m) {
                        Some(Op::new(OpKind::Backward, m))
                    } else {
                        None
                    }
                } else {
                    // Varuna drains backwards FIFO; GPipe walks them in
                    // reverse micro-batch order.
                    let next_b = match disc {
                        Discipline::Varuna => (0..stage.fwd_done).find(|&m| !stage.bwd_done[m]),
                        Discipline::GPipe => {
                            (0..stage.fwd_done).rev().find(|&m| !stage.bwd_done[m])
                        }
                    };
                    let backward_ok = next_b.is_some_and(|m| {
                        grad_ready(&st, m)
                            && (stage.rec_done[m]
                                || stage.live == Some(m)
                                || !needs_rec(disc, last))
                    });
                    let forwards_first = disc == Discipline::GPipe && stage.fwd_done < n_micro;
                    if backward_ok && !forwards_first {
                        Some(Op::new(OpKind::Backward, next_b.unwrap()))
                    } else if let Some(m) = next_b.filter(|&m| {
                        // Constraint 1 (Varuna only): recompute once the
                        // downstream backward has started, so the
                        // recompute completes just as the gradient lands.
                        // GPipe has no such lead: it recomputes only after
                        // the gradient arrives, serializing R into the
                        // backward wave — the structural inefficiency of
                        // Figure 4.
                        let window_open = match disc {
                            Discipline::Varuna => {
                                last || st[s + 1].bwd_start[m] <= now || grad_ready(&st, m)
                            }
                            Discipline::GPipe => grad_ready(&st, m),
                        };
                        needs_rec(disc, last)
                            && !stage.rec_done[m]
                            && stage.live != Some(m)
                            && !forwards_first
                            && window_open
                    }) {
                        Some(Op::new(OpKind::Recompute, m))
                    } else if stage.fwd_done < n_micro
                        && stage.stash < window
                        && (s == 0 || st[s - 1].fwd_end[stage.fwd_done] <= now)
                    {
                        Some(Op::new(OpKind::Forward, stage.fwd_done))
                    } else {
                        None
                    }
                }
            };
            let Some(op) = op else { continue };
            let stage = &mut st[s];
            stage.order.push(op);
            match op.kind {
                OpKind::Forward => {
                    stage.fwd_end[op.micro] = now + F;
                    stage.fwd_done += 1;
                    stage.stash += 1;
                    stage.live = Some(op.micro);
                    stage.free_at = now + F;
                }
                OpKind::Recompute => {
                    stage.rec_done[op.micro] = true;
                    stage.pending_rec = Some(op.micro);
                    stage.live = Some(op.micro);
                    stage.free_at = now + R;
                }
                OpKind::Backward => {
                    stage.bwd_done[op.micro] = true;
                    stage.bwd_start[op.micro] = now;
                    stage.bwd_end[op.micro] = now + B;
                    stage.pending_rec = None;
                    stage.live = None;
                    stage.stash -= 1;
                    stage.free_at = now + B;
                    done += 1;
                }
            }
        }
        // Advance to the next interesting time: the earliest stage-free or
        // completion boundary strictly after `now`.
        let mut next = f64::INFINITY;
        for stage in &st {
            if stage.free_at > now {
                next = next.min(stage.free_at);
            }
        }
        if next.is_finite() {
            now = next;
        } else if done < total_backwards {
            // Everyone idle at `now` with nothing dispatched: advance by
            // the smallest quantum to re-evaluate (should not happen; the
            // guard above catches true deadlock).
            now += F;
        }
    }
    let makespan = st
        .iter()
        .flat_map(|s| s.bwd_end.iter())
        .fold(0.0f64, |a, &b| a.max(b));
    StaticSchedule {
        p,
        n_micro,
        per_stage: st.into_iter().map(|s| s.order).collect(),
        makespan,
    }
}

/// Enumerates the offline op order produced by an arbitrary
/// [`SchedulePolicy`] under the same idealized unit-time model as
/// [`enumerate`] (`F = R = 1`, `B = 2`, zero network latency).
///
/// Where [`enumerate`] hard-codes the Varuna/GPipe dispatch rules, this
/// drives one policy instance per stage through the [`StageView`] legality
/// interface — exactly as the emulator and the numeric trainer do — so any
/// discipline (1F1B, PipeDream, greedy, …) can be rendered as a
/// [`StaticSchedule`] without a second rule encoding. Pass
/// `recompute_enabled = false` for disciplines that store activations
/// instead of rematerializing them (PipeDream).
///
/// # Panics
///
/// Panics if a policy returns an illegal op, or if the policies wedge (no
/// stage can make progress and the schedule cannot terminate).
pub fn enumerate_policy(
    p: usize,
    n_micro: usize,
    window: usize,
    recompute_enabled: bool,
    factory: &PolicyFactory<'_>,
) -> StaticSchedule {
    assert!(p >= 1 && n_micro >= 1 && window >= 1);
    const F: f64 = 1.0;
    const R: f64 = 1.0;
    const B: f64 = 2.0;

    struct St {
        policy: Box<dyn SchedulePolicy>,
        free_at: f64,
        fwd_done: usize,
        fwd_end: Vec<f64>,
        bwd_done: Vec<bool>,
        bwd_end: Vec<f64>,
        rec_done: Vec<bool>,
        pending_rec: Option<usize>,
        live: Option<usize>,
        stash: usize,
        order: Vec<Op>,
    }

    let mut st: Vec<St> = (0..p)
        .map(|s| St {
            policy: factory(s, 0),
            free_at: 0.0,
            fwd_done: 0,
            fwd_end: vec![f64::INFINITY; n_micro],
            bwd_done: vec![false; n_micro],
            bwd_end: vec![f64::INFINITY; n_micro],
            rec_done: vec![false; n_micro],
            pending_rec: None,
            live: None,
            stash: 0,
            order: Vec::with_capacity(3 * n_micro),
        })
        .collect();

    let mut now = 0.0f64;
    let total_backwards = p * n_micro;
    let mut done = 0usize;
    let mut guard = 0usize;
    while done < total_backwards {
        guard += 1;
        assert!(
            guard < 100 * total_backwards + 100,
            "policy enumeration diverged"
        );
        for s in 0..p {
            if st[s].free_at > now {
                continue;
            }
            let last = s == p - 1;
            // Zero-latency event model, identical to `enumerate`: the
            // gradient for micro-batch m lands at stage s when stage s+1's
            // backward ends (for the last stage, when its own forward
            // ends); the input for the next forward lands when stage s-1's
            // forward ends.
            let grads_ready: Vec<bool> = (0..n_micro)
                .map(|m| {
                    !st[s].bwd_done[m]
                        && if last {
                            st[s].fwd_end[m] <= now
                        } else {
                            st[s + 1].bwd_end[m] <= now
                        }
                })
                .collect();
            let stage = &st[s];
            let next_forward_ready = stage.fwd_done < n_micro
                && stage.stash < window
                && (s == 0 || st[s - 1].fwd_end[stage.fwd_done] <= now);
            // Snapshot the per-mb state so the view does not hold a borrow
            // of `st` across the (mutable) policy pick.
            let rec_done = stage.rec_done.clone();
            let bwd_done = stage.bwd_done.clone();
            let view = StageView {
                stage: s,
                p,
                last_stage: last,
                n_micro,
                forwards_done: stage.fwd_done,
                next_forward_ready,
                grads_ready: &grads_ready,
                recomputes_done: &rec_done,
                backwards_done: &bwd_done,
                live_acts: stage.live,
                pending_recompute: stage.pending_rec,
                stash_len: stage.stash,
                stash_window: window,
                recompute_enabled,
            };
            let Some(op) = st[s].policy.pick(&view) else {
                continue;
            };
            assert!(view.is_legal(op), "stage {s} picked illegal {op:?}");
            let stage = &mut st[s];
            stage.order.push(op);
            // Starting any op other than the backward that consumes them
            // invalidates live activations (same rule as the emulator).
            if !(op.kind == OpKind::Backward && stage.live == Some(op.micro)) {
                stage.live = None;
            }
            match op.kind {
                OpKind::Forward => {
                    stage.fwd_end[op.micro] = now + F;
                    stage.fwd_done += 1;
                    stage.stash += 1;
                    stage.live = Some(op.micro);
                    stage.free_at = now + F;
                }
                OpKind::Recompute => {
                    stage.rec_done[op.micro] = true;
                    stage.pending_rec = Some(op.micro);
                    stage.live = Some(op.micro);
                    stage.free_at = now + R;
                }
                OpKind::Backward => {
                    stage.bwd_done[op.micro] = true;
                    stage.bwd_end[op.micro] = now + B;
                    stage.pending_rec = None;
                    stage.live = None;
                    stage.stash -= 1;
                    stage.free_at = now + B;
                    done += 1;
                }
            }
        }
        let mut next = f64::INFINITY;
        for stage in &st {
            if stage.free_at > now {
                next = next.min(stage.free_at);
            }
        }
        if next.is_finite() {
            now = next;
        } else if done < total_backwards {
            now += F;
        }
    }
    let makespan = st
        .iter()
        .flat_map(|s| s.bwd_end.iter())
        .filter(|e| e.is_finite())
        .fold(0.0f64, |a, &b| a.max(b));
    StaticSchedule {
        p,
        n_micro,
        per_stage: st.into_iter().map(|s| s.order).collect(),
        makespan,
    }
}

/// Whether a stage recomputes under the given discipline. In Varuna the
/// last stage never recomputes (its backward chases its forward, paper
/// Figure 4); in GPipe only the final micro-batch escapes (handled by the
/// live-activation rule).
fn needs_rec(disc: Discipline, last: bool) -> bool {
    match disc {
        Discipline::Varuna => !last,
        Discipline::GPipe => true,
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

    #[test]
    fn figure4_varuna_beats_gpipe_makespan() {
        // Figure 4: 4 stages, 5 micro-batches — Varuna's schedule is
        // strictly shorter than GPipe's.
        let v = enumerate(4, 5, usize::MAX, Discipline::Varuna);
        let g = enumerate(4, 5, usize::MAX, Discipline::GPipe);
        assert!(
            v.makespan + 0.5 < g.makespan,
            "varuna {} vs gpipe {}",
            v.makespan,
            g.makespan
        );
    }

    #[test]
    fn every_stage_schedules_every_microbatch() {
        for (p, n) in [(1, 4), (2, 3), (4, 5), (6, 12)] {
            let s = generate_schedule(p, n, usize::MAX);
            for (stage, ops) in s.per_stage.iter().enumerate() {
                let f = ops.iter().filter(|o| o.kind == OpKind::Forward).count();
                let b = ops.iter().filter(|o| o.kind == OpKind::Backward).count();
                assert_eq!(f, n, "stage {stage} forwards");
                assert_eq!(b, n, "stage {stage} backwards");
            }
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
    fn gpipe_backwards_are_reverse_order() {
        let s = enumerate(3, 4, usize::MAX, Discipline::GPipe);
        let order: Vec<usize> = s.per_stage[0]
            .iter()
            .filter(|o| o.kind == OpKind::Backward)
            .map(|o| o.micro)
            .collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
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
        let s = generate_schedule(4, 12, 2);
        // With a window of 2, no stage's schedule may have more than 2
        // forwards not yet matched by backwards at any prefix.
        for ops in &s.per_stage {
            let mut outstanding = 0i64;
            for op in ops {
                match op.kind {
                    OpKind::Forward => outstanding += 1,
                    OpKind::Backward => outstanding -= 1,
                    OpKind::Recompute => {}
                }
                assert!(outstanding <= 2, "window violated in {ops:?}");
            }
        }
    }

    #[test]
    fn policy_enumeration_runs_greedy_to_completion() {
        use crate::policy::GreedyPolicy;
        let s = enumerate_policy(4, 5, usize::MAX, true, &|_, _| Box::new(GreedyPolicy));
        for (stage, ops) in s.per_stage.iter().enumerate() {
            let f = ops.iter().filter(|o| o.kind == OpKind::Forward).count();
            let b = ops.iter().filter(|o| o.kind == OpKind::Backward).count();
            assert_eq!(f, 5, "stage {stage} forwards");
            assert_eq!(b, 5, "stage {stage} backwards");
        }
        assert!(s.makespan > 0.0);
    }

    #[test]
    fn strict_varuna_policy_replays_its_static_schedule() {
        // Driving the strict VarunaPolicy through the generic enumerator
        // under the same unit-time model must reproduce the static order —
        // the policy and the offline rules are two views of one schedule.
        let s = generate_schedule(4, 6, usize::MAX);
        let replayed = enumerate_policy(4, 6, usize::MAX, true, &|stage, _| {
            Box::new(VarunaPolicy::strict_for_stage(&s, stage))
        });
        assert_eq!(s.per_stage, replayed.per_stage);
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
