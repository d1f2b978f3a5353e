//! Drain-in-place legality for live stage migration.
//!
//! Zero-downtime morphing replaces a VM by streaming its stage state to
//! the replacement while the rest of the pipeline keeps running. The
//! drained stage stops after some prefix of its static op order; the
//! migration is *legal* at that point only if every op remaining on the
//! other stages can still complete — i.e. no remaining op depends,
//! directly or transitively, on an output the drained stage would only
//! have produced after its cut.
//!
//! The dependency model matches the schedules in [`crate::schedule`]:
//! each stage executes its static order sequentially; a forward for
//! micro-batch `m` additionally needs the upstream stage's forward of
//! `m`; a backward needs the downstream stage's backward of `m`;
//! recompute reads only the stage's own stashed input. Mini-batch
//! boundaries (every stage's order fully executed) are therefore always
//! legal drain points — the property the manager's live-migration model
//! relies on, since it only migrates between plan attempts.

use crate::op::{Op, OpKind};
use crate::schedule::StaticSchedule;

/// Whether stage `stage` may drain in place after completing
/// `completed[s]` ops on each stage `s` of `schedule`.
///
/// `completed` gives, per stage, how many ops of that stage's static
/// order have already executed. The drained stage is frozen at its
/// prefix; every other stage is advanced to a fixed point under the
/// dependency rules above, and the drain is legal iff all of them reach
/// the end of their orders.
///
/// # Panics
///
/// Panics if `stage >= schedule.p`, `completed.len() != schedule.p`, or
/// any prefix exceeds its stage's order length.
pub fn drain_in_place_legal(schedule: &StaticSchedule, stage: usize, completed: &[usize]) -> bool {
    let p = schedule.p;
    assert!(stage < p, "stage {stage} out of range for p={p}");
    assert_eq!(completed.len(), p, "one completed prefix per stage");
    for (s, &c) in completed.iter().enumerate() {
        assert!(
            c <= schedule.per_stage[s].len(),
            "stage {s}: prefix {c} exceeds order length {}",
            schedule.per_stage[s].len()
        );
    }

    // Whether stage `s` has produced `op` within its first `upto` ops.
    let produced = |s: usize, op: Op, upto: usize| schedule.per_stage[s][..upto].contains(&op);

    // Per-stage progress pointers; the drained stage never advances.
    let mut at: Vec<usize> = completed.to_vec();
    loop {
        let mut advanced = false;
        for s in 0..p {
            if s == stage {
                continue;
            }
            while at[s] < schedule.per_stage[s].len() {
                let op = schedule.per_stage[s][at[s]];
                let cross_ok = match op.kind {
                    OpKind::Forward if s > 0 => {
                        produced(s - 1, Op::new(OpKind::Forward, op.micro), at[s - 1])
                    }
                    OpKind::Backward if s + 1 < p => {
                        produced(s + 1, Op::new(OpKind::Backward, op.micro), at[s + 1])
                    }
                    // First-stage forwards, last-stage backwards, and
                    // recompute depend only on the stage's own prior ops,
                    // which program order already guarantees.
                    _ => true,
                };
                if !cross_ok {
                    break;
                }
                at[s] += 1;
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
    }
    (0..p)
        .filter(|&s| s != stage)
        .all(|s| at[s] == schedule.per_stage[s].len())
}

/// Whether stage `stage` may drain at a mini-batch boundary: shorthand
/// for [`drain_in_place_legal`] with every stage's order fully executed.
/// Always true — kept as an executable statement of the lemma the
/// manager's live-migration model relies on.
pub fn boundary_drain_legal(schedule: &StaticSchedule, stage: usize) -> bool {
    let completed: Vec<usize> = schedule.per_stage.iter().map(Vec::len).collect();
    drain_in_place_legal(schedule, stage, &completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::generate_schedule;

    // The same lemmas for GPipe's schedule, which the `varuna-exec`
    // emulator renders, live in `varuna-exec`'s `unit_schedules` tests.

    #[test]
    fn minibatch_boundaries_are_legal_for_every_stage() {
        for p in 1..5 {
            for n_micro in 1..5 {
                let sched = generate_schedule(p, n_micro, n_micro.max(2));
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
    fn a_finished_stage_may_drain_whatever_the_others_have_done() {
        // The drained stage has produced everything it ever will, so the
        // rest of the pipeline can always run to completion without it.
        let sched = generate_schedule(3, 4, 4);
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
    fn cutting_off_a_backward_the_upstream_stage_still_needs_is_illegal() {
        let sched = generate_schedule(2, 3, 3);
        // Freeze stage 1 one op short: its last backward never lands, so
        // stage 0's matching backward can never run.
        let cut = sched.per_stage[1].len() - 1;
        assert_eq!(sched.per_stage[1][cut].kind, OpKind::Backward);
        assert!(!drain_in_place_legal(&sched, 1, &[0, cut]));
    }

    #[test]
    fn cutting_off_a_forward_the_downstream_stage_still_needs_is_illegal() {
        // Freeze stage 0 before any op: stage 1 never receives a single
        // forward activation.
        let sched = generate_schedule(2, 3, 3);
        assert!(!drain_in_place_legal(&sched, 0, &[0, 0]));
    }

    #[test]
    fn a_single_stage_pipeline_drains_vacuously() {
        let sched = generate_schedule(1, 3, 3);
        assert!(drain_in_place_legal(&sched, 0, &[0]));
        assert!(boundary_drain_legal(&sched, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_stage_panics() {
        let sched = generate_schedule(2, 2, 2);
        drain_in_place_legal(&sched, 2, &[0, 0]);
    }

    #[test]
    fn partial_but_dependency_closed_prefixes_are_legal() {
        // Stage 0 has run its first forward only; stage 1 has run
        // nothing. Draining stage 1 is illegal (its backwards are still
        // owed to stage 0)... unless stage 0 is already past the point of
        // needing them. With nothing completed downstream the cut
        // violates stage 0's backwards; completing stage 1 fully makes
        // the same drain legal.
        let sched = generate_schedule(2, 2, 2);
        assert!(!drain_in_place_legal(&sched, 1, &[1, 0]));
        let completed = vec![1, sched.per_stage[1].len()];
        assert!(drain_in_place_legal(&sched, 1, &completed));
    }
}
