//! Schedules rendered by the emulator at unit times
//! (`render_unit_schedule`: `F = R = 1`, `B = 2`, zero network latency).
//!
//! GPipe's Figure 4 schedule, its drain lemmas and its pinned digest, the
//! strict Varuna replay of the schedule kernel, and what happens when a
//! policy wedges.

use varuna_baselines::OneF1BPolicy;
use varuna_exec::pipeline::{render_unit_schedule, SimError};
use varuna_sched::drain::{boundary_drain_legal, drain_in_place_legal};
use varuna_sched::op::OpKind;
use varuna_sched::policy::{GPipePolicy, GreedyPolicy};
use varuna_sched::schedule::{generate_schedule, StaticSchedule, VarunaPolicy};

const WINDOWS: [usize; 6] = [1, 2, 3, 4, 8, usize::MAX];

fn gpipe(p: usize, n_micro: usize, window: usize) -> StaticSchedule {
    render_unit_schedule(p, n_micro, window, true, &|_, _| Box::new(GPipePolicy))
        .expect("GPipe completes under any stash window")
}

/// Asserts every stage forwards and backpropagates each micro-batch once
/// and never holds more than `window` stashes.
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

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fold(h: &mut u64, window: usize, s: &StaticSchedule) {
    for x in [s.p, s.n_micro, window] {
        fnv(h, &(x as u64).to_le_bytes());
    }
    for ops in &s.per_stage {
        fnv(h, &(ops.len() as u64).to_le_bytes());
        for op in ops {
            fnv(h, &[op.kind.code() as u8]);
            fnv(h, &(op.micro as u64).to_le_bytes());
        }
    }
    fnv(h, &s.makespan.to_bits().to_le_bytes());
}

/// An FNV-1a digest over `(p, n_micro, window, per_stage,
/// makespan.to_bits())` of every GPipe schedule for `p ≤ 8`, `n ≤ 16`
/// whose stash window holds all `n` micro-batches.
#[test]
fn gpipe_schedules_match_their_pinned_digest() {
    let mut digest = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for p in 1..=8 {
        for n in 1..=16 {
            for w in WINDOWS.into_iter().filter(|&w| w >= n) {
                fold(&mut digest.1, w, &gpipe(p, n, w));
                digest.0 += 1;
            }
        }
    }
    assert_eq!(digest, (272, 0x966e_deb8_20ef_6607), "gpipe digest moved");
}

#[test]
fn figure4_varuna_beats_gpipe_makespan() {
    // Figure 4: 4 stages, 5 micro-batches — Varuna's schedule is strictly
    // shorter than GPipe's (26 vs 31 units).
    let v = generate_schedule(4, 5, usize::MAX);
    let g = gpipe(4, 5, usize::MAX);
    assert_eq!((v.makespan, g.makespan), (26.0, 31.0));
}

#[test]
fn gpipe_backwards_are_reverse_order() {
    let s = gpipe(3, 4, usize::MAX);
    let order: Vec<usize> = s.per_stage[0]
        .iter()
        .filter(|o| o.kind == OpKind::Backward)
        .map(|o| o.micro)
        .collect();
    assert_eq!(order, vec![3, 2, 1, 0]);
}

#[test]
fn gpipe_drains_forwarded_microbatches_under_a_tight_stash_window() {
    // With fewer stash slots than micro-batches, GPipe's phase 2 must
    // drain the micro-batches it has forwarded to make room for the rest,
    // not wait on one whose forward never ran.
    for p in 1..=5 {
        for n in 2..=9 {
            for window in 1..n {
                assert_complete_within(&gpipe(p, n, window), window);
            }
        }
    }
}

#[test]
fn greedy_renders_to_completion() {
    let s = render_unit_schedule(4, 5, usize::MAX, true, &|_, _| Box::new(GreedyPolicy))
        .expect("greedy completes");
    assert_complete_within(&s, usize::MAX);
    assert!(s.makespan > 0.0);
}

#[test]
fn strict_varuna_policy_replays_its_static_schedule() {
    // Driving the strict VarunaPolicy through the emulator at unit times
    // must reproduce the kernel's order on every shape — the policy and
    // the kernel's rules are two views of one schedule.
    for p in 1..=8 {
        for n in 1..=16 {
            for w in WINDOWS {
                let s = generate_schedule(p, n, w);
                let replayed = render_unit_schedule(p, n, w, true, &|stage, _| {
                    Box::new(VarunaPolicy::strict_for_stage(&s, stage))
                })
                .expect("the kernel's order completes");
                assert_eq!(s.per_stage, replayed.per_stage, "p={p} n={n} w={w}");
            }
        }
    }
}

#[test]
fn a_wedged_policy_is_a_deadlock_not_a_panic() {
    // 1F1B's first stage owes `p - 1` warmup forwards before its first
    // backward; with a one-slot stash window it can never start the second.
    let err = render_unit_schedule(4, 8, 1, true, &|_, _| Box::new(OneF1BPolicy))
        .expect_err("1F1B wedges under a one-slot window");
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn gpipe_minibatch_boundaries_are_legal_for_every_stage() {
    for p in 1..5 {
        for n_micro in 1..5 {
            let sched = gpipe(p, n_micro, n_micro.max(2));
            for stage in 0..p {
                assert!(
                    boundary_drain_legal(&sched, stage),
                    "p={p} m={n_micro} stage={stage}"
                );
            }
        }
    }
}

#[test]
fn a_finished_gpipe_stage_may_drain_whatever_the_others_have_done() {
    let sched = gpipe(3, 4, 4);
    for stage in 0..3 {
        let mut completed = vec![0usize; 3];
        completed[stage] = sched.per_stage[stage].len();
        assert!(
            drain_in_place_legal(&sched, stage, &completed),
            "stage={stage}"
        );
    }
}

#[test]
fn cutting_off_a_gpipe_backward_the_upstream_stage_still_needs_is_illegal() {
    let sched = gpipe(2, 3, 3);
    let cut = sched.per_stage[1].len() - 1;
    assert_eq!(sched.per_stage[1][cut].kind, OpKind::Backward);
    assert!(!drain_in_place_legal(&sched, 1, &[0, cut]));
}

#[test]
fn cutting_off_a_gpipe_forward_the_downstream_stage_still_needs_is_illegal() {
    let sched = gpipe(2, 3, 3);
    assert!(!drain_in_place_legal(&sched, 0, &[0, 0]));
}
