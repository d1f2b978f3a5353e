//! Drives [`StageState`] directly: random arrivals, and at every idle
//! stage any op its view calls legal, with recompute on and off and stash
//! windows 1..=4. After every transition the stage rules of paper §3.2
//! must hold: the stash stays within its window and `peak_stash` is its
//! running maximum, forwards run in order, a pending recompute is cleared
//! only by its own backward, live activations survive only into their
//! consuming backward, and every stage ends with exactly `n` forwards and
//! `n` backwards.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use varuna_sched::{Op, OpKind, StageState};

/// One step of the random driver.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The oldest activation in flight to a stage arrives.
    Act(usize),
    /// The `.1`-th gradient in flight to stage `.0` arrives (in any order).
    Grad(usize, usize),
    /// A stage starts a legal op.
    Start(usize, Op),
    /// A stage completes its running op.
    Complete(usize),
}

/// What the test remembers of one stage, to check the state against.
#[derive(Default)]
struct Seen {
    running: Option<Op>,
    /// The stage's last completed op.
    last: Option<Op>,
    forwards: usize,
    backwards: usize,
    max_stash: usize,
}

/// Every op `state` admits right now.
fn legal_ops(state: &StageState, n: usize) -> Vec<Op> {
    let view = state.view();
    let mut ops = vec![Op::new(OpKind::Forward, view.forwards_done)];
    for mb in 0..n {
        ops.push(Op::new(OpKind::Recompute, mb));
        ops.push(Op::new(OpKind::Backward, mb));
    }
    ops.retain(|&op| view.is_legal(op));
    ops
}

/// Runs one random pipeline to completion, checking every transition.
fn drive(p: usize, n: usize, window: usize, recompute: bool, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stages: Vec<StageState> = (0..p)
        .map(|s| StageState::new(s, p, n, window, recompute))
        .collect();
    let mut seen: Vec<Seen> = (0..p).map(|_| Seen::default()).collect();
    let mut acts_in_flight = vec![0usize; p];
    let mut grads_in_flight: Vec<Vec<usize>> = vec![Vec::new(); p];
    loop {
        let mut steps = Vec::new();
        for s in 0..p {
            if acts_in_flight[s] > 0 {
                steps.push(Step::Act(s));
            }
            steps.extend((0..grads_in_flight[s].len()).map(|k| Step::Grad(s, k)));
            if seen[s].running.is_some() {
                steps.push(Step::Complete(s));
            } else {
                steps.extend(
                    legal_ops(&stages[s], n)
                        .into_iter()
                        .map(|op| Step::Start(s, op)),
                );
            }
        }
        if steps.is_empty() {
            break;
        }
        let step = steps[rng.gen_range(0..steps.len())];
        let s = match step {
            Step::Act(s) | Step::Grad(s, _) | Step::Start(s, _) | Step::Complete(s) => s,
        };
        let before = stages[s].view();
        let (live, pending) = (before.live_acts, before.pending_recompute);
        let state = &mut stages[s];
        match step {
            Step::Act(_) => {
                acts_in_flight[s] -= 1;
                state.act_arrived();
            }
            Step::Grad(_, k) => state.grad_arrived(grads_in_flight[s].swap_remove(k)),
            Step::Start(_, op) => {
                if op.kind == OpKind::Forward && op.micro != seen[s].forwards {
                    return Err(format!("stage {s} started {op:?} out of order"));
                }
                let dropped = state.start(op);
                let consumes = op.kind == OpKind::Backward && live == Some(op.micro);
                if dropped != live.filter(|_| !consumes) {
                    return Err(format!(
                        "stage {s}: {op:?} dropped {dropped:?}, live {live:?}"
                    ));
                }
                seen[s].running = Some(op);
            }
            Step::Complete(_) => {
                let op = seen[s].running.take().expect("a running op");
                state.complete(op);
                seen[s].last = Some(op);
                match op.kind {
                    OpKind::Forward => {
                        seen[s].forwards += 1;
                        if s + 1 < p {
                            acts_in_flight[s + 1] += 1;
                        }
                    }
                    OpKind::Recompute => {}
                    OpKind::Backward => {
                        seen[s].backwards += 1;
                        if s > 0 {
                            grads_in_flight[s - 1].push(op.micro);
                        }
                    }
                }
            }
        }

        let view = stages[s].view();
        let seen = &mut seen[s];
        if view.stash_len > window {
            return Err(format!("stage {s} stashes {} > {window}", view.stash_len));
        }
        seen.max_stash = seen.max_stash.max(view.stash_len);
        if stages[s].peak_stash() != seen.max_stash {
            return Err(format!("stage {s}: peak_stash is not the running maximum"));
        }
        if view.forwards_done != seen.forwards || stages[s].backwards_done() != seen.backwards {
            return Err(format!("stage {s}: op counts drifted"));
        }
        match (pending, view.pending_recompute) {
            (Some(m), None) if seen.last != Some(Op::new(OpKind::Backward, m)) => {
                return Err(format!(
                    "stage {s}: pending recompute {m} cleared by {step:?}"
                ));
            }
            (Some(m), Some(k)) if m != k => {
                return Err(format!("stage {s}: pending recompute {m} replaced by {k}"));
            }
            (None, Some(k)) if seen.last != Some(Op::new(OpKind::Recompute, k)) => {
                return Err(format!("stage {s}: recompute {k} pending without running"));
            }
            _ => {}
        }
        if let Some(m) = view.live_acts {
            let made = seen.running.is_none()
                && (seen.last == Some(Op::new(OpKind::Forward, m))
                    || seen.last == Some(Op::new(OpKind::Recompute, m)));
            let consuming = seen.running == Some(Op::new(OpKind::Backward, m));
            if !made && !consuming {
                return Err(format!(
                    "stage {s}: activations of {m} live past {step:?} (last {:?}, running {:?})",
                    seen.last, seen.running
                ));
            }
        }
        if !recompute && view.recomputes_done.contains(&true) {
            return Err(format!("stage {s} recomputed with recompute off"));
        }
    }
    for (s, state) in stages.iter().enumerate() {
        let view = state.view();
        let all = |flags: &[bool]| flags.iter().all(|&f| f);
        if !state.is_done() || view.forwards_done != n || !all(view.backwards_done) {
            return Err(format!(
                "stage {s} stopped at {} forwards and {} backwards of {n}",
                view.forwards_done,
                state.backwards_done()
            ));
        }
        if view.grads_ready.contains(&true) || view.stash_len != 0 {
            return Err(format!("stage {s} ended holding gradients or stashes"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_legal_runs_keep_the_stage_rules(
        p in 1usize..5,
        n in 1usize..9,
        window in 1usize..5,
        recompute in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let outcome = drive(p, n, window, recompute, seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
