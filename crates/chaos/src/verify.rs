//! Stream-level recovery invariants.
//!
//! These are the safety properties the chaos suite pins: whatever the
//! fault schedule, a manager replay must produce an event stream that
//! passes [`check_invariants`] with zero violations.

use std::collections::BTreeSet;

use varuna_obs::{Event, EventKind};

/// Checks a replayed event stream against every recovery invariant,
/// returning one human-readable line per violation (empty = clean).
///
/// The invariants:
///
/// 1. **Monotone simulated time** — `t_sim` is finite, non-negative, and
///    never decreases.
/// 2. **Monotone minibatch progress** — successful `Checkpoint` steps
///    never decrease (work is never rolled back; a stale resume point is
///    handled by `CheckpointFallback`, not by rewriting history).
/// 3. **No double exclusion** — a VM is never `VmExcluded` twice without
///    an intervening `VmReadmitted` or `Preemption` of that VM.
/// 4. **Degraded alternation** — `DegradedEnter`/`DegradedExit` strictly
///    alternate, and every exit prices a non-negative pause.
/// 5. **Capacity honesty** — every `Morph` and `Checkpoint` uses at most
///    the GPUs it holds, with finite non-negative throughputs; downtime
///    pricing is honest too (finite non-negative restart / migration /
///    write / overlapped seconds, a morph never prices both a restart
///    and a migration, and live migration only applies to same-shape
///    replacements — a real reconfiguration must restart).
/// 6. **Priced lost work** — every `LostWork` event carries a positive
///    cost and is attached to a reconfiguration (a `Morph` at the same
///    `t_sim`): work is conserved *modulo explicitly-priced loss*.
/// 7. **Fallback sanity** — `CheckpointFallback` never moves the durable
///    point forward.
/// 8. **Plan-search accounting** — every `PlanSearch` event's candidates
///    are fully accounted for: simulated + memo hits + analytic
///    fallbacks equals the candidate count.
pub fn check_invariants(events: &[Event]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    let mut last_ckpt_step: u64 = 0;
    let mut excluded: BTreeSet<u64> = BTreeSet::new();
    let mut degraded = false;

    for (i, e) in events.iter().enumerate() {
        if !e.t_sim.is_finite() || e.t_sim < 0.0 {
            violations.push(format!(
                "event {i}: non-finite or negative t_sim {}",
                e.t_sim
            ));
            continue;
        }
        if e.t_sim < last_t {
            violations.push(format!(
                "event {i}: time went backwards ({} after {last_t})",
                e.t_sim
            ));
        }
        last_t = last_t.max(e.t_sim);

        match &e.kind {
            EventKind::Checkpoint {
                step,
                gpus_held,
                gpus_used,
                examples_per_sec,
                write_seconds,
                overlapped_seconds,
                ..
            } => {
                if *step < last_ckpt_step {
                    violations.push(format!(
                        "event {i}: checkpoint step regressed ({step} after {last_ckpt_step})"
                    ));
                }
                last_ckpt_step = last_ckpt_step.max(*step);
                if gpus_used > gpus_held {
                    violations.push(format!(
                        "event {i}: checkpoint uses {gpus_used} GPUs but holds {gpus_held}"
                    ));
                }
                if !(examples_per_sec.is_finite() && *examples_per_sec >= 0.0) {
                    violations.push(format!(
                        "event {i}: bad checkpoint throughput {examples_per_sec}"
                    ));
                }
                if !(write_seconds.is_finite() && *write_seconds >= 0.0) {
                    violations.push(format!(
                        "event {i}: bad checkpoint write_seconds {write_seconds}"
                    ));
                }
                if !(overlapped_seconds.is_finite() && *overlapped_seconds >= 0.0) {
                    violations.push(format!(
                        "event {i}: bad checkpoint overlapped_seconds {overlapped_seconds}"
                    ));
                }
            }
            EventKind::Morph {
                gpus_held,
                gpus_used,
                examples_per_sec,
                reconfigured,
                restart_seconds,
                migration_seconds,
                ..
            } => {
                if gpus_used > gpus_held {
                    violations.push(format!(
                        "event {i}: morph uses {gpus_used} GPUs but holds {gpus_held}"
                    ));
                }
                if !(examples_per_sec.is_finite() && *examples_per_sec >= 0.0) {
                    violations.push(format!(
                        "event {i}: bad morph throughput {examples_per_sec}"
                    ));
                }
                if !(restart_seconds.is_finite() && *restart_seconds >= 0.0) {
                    violations.push(format!(
                        "event {i}: bad morph restart_seconds {restart_seconds}"
                    ));
                }
                if !(migration_seconds.is_finite() && *migration_seconds >= 0.0) {
                    violations.push(format!(
                        "event {i}: bad morph migration_seconds {migration_seconds}"
                    ));
                }
                if *restart_seconds > 0.0 && *migration_seconds > 0.0 {
                    violations.push(format!(
                        "event {i}: morph prices both a restart ({restart_seconds}s) \
                         and a migration ({migration_seconds}s)"
                    ));
                }
                if *reconfigured && *migration_seconds > 0.0 {
                    violations.push(format!(
                        "event {i}: reconfiguration priced as a live migration \
                         ({migration_seconds}s)"
                    ));
                }
            }
            EventKind::VmExcluded { vm, .. } if !excluded.insert(*vm) => {
                violations.push(format!("event {i}: VM {vm} excluded twice"));
            }
            EventKind::VmReadmitted { vm } if !excluded.remove(vm) => {
                violations.push(format!("event {i}: VM {vm} readmitted but not excluded"));
            }
            EventKind::Preemption { vm } => {
                // A preempted VM's exclusion episode ends with the VM.
                excluded.remove(vm);
            }
            EventKind::DegradedEnter { .. } => {
                if degraded {
                    violations.push(format!("event {i}: DegradedEnter while already degraded"));
                }
                degraded = true;
            }
            EventKind::DegradedExit { paused_seconds, .. } => {
                if !degraded {
                    violations.push(format!("event {i}: DegradedExit without DegradedEnter"));
                }
                degraded = false;
                if !(paused_seconds.is_finite() && *paused_seconds >= 0.0) {
                    violations.push(format!("event {i}: bad paused_seconds {paused_seconds}"));
                }
            }
            EventKind::LostWork {
                minibatches,
                seconds,
            } => {
                if *minibatches == 0 {
                    violations.push(format!("event {i}: LostWork prices zero minibatches"));
                }
                if !(seconds.is_finite() && *seconds > 0.0) {
                    violations.push(format!("event {i}: LostWork prices {seconds} seconds"));
                }
                let attached = events[i + 1..]
                    .iter()
                    .take_while(|n| n.t_sim == e.t_sim)
                    .any(|n| matches!(n.kind, EventKind::Morph { .. }));
                if !attached {
                    violations.push(format!(
                        "event {i}: LostWork not attached to a reconfiguration at t={}",
                        e.t_sim
                    ));
                }
            }
            EventKind::CheckpointFallback { from_step, to_step } if to_step > from_step => {
                violations.push(format!(
                    "event {i}: fallback advances the durable point \
                     ({from_step} -> {to_step})"
                ));
            }
            EventKind::PlanSearch {
                candidates,
                simulated,
                memo_hits,
                analytic_fallbacks,
            } if simulated + memo_hits + analytic_fallbacks != *candidates => {
                violations.push(format!(
                    "event {i}: plan search loses candidates \
                     ({simulated} + {memo_hits} + {analytic_fallbacks} != {candidates})"
                ));
            }
            EventKind::MorphRetry {
                backoff_seconds, ..
            } if !(backoff_seconds.is_finite() && *backoff_seconds > 0.0) => {
                violations.push(format!("event {i}: bad retry backoff {backoff_seconds}"));
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_obs::Event;

    #[test]
    fn an_empty_stream_is_clean() {
        assert!(check_invariants(&[]).is_empty());
    }

    #[test]
    fn backwards_time_is_flagged() {
        let events = [
            Event::manager(10.0, EventKind::Preemption { vm: 1 }),
            Event::manager(5.0, EventKind::Preemption { vm: 2 }),
        ];
        let v = check_invariants(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("backwards"));
    }

    #[test]
    fn checkpoint_regression_is_flagged() {
        let ck = |t: f64, step: u64| {
            Event::manager(
                t,
                EventKind::Checkpoint {
                    step,
                    gpus_held: 4,
                    gpus_used: 4,
                    p: 2,
                    d: 2,
                    examples_per_sec: 10.0,
                    examples_per_sec_per_gpu: 2.5,
                    write_seconds: 0.5,
                    overlapped_seconds: 0.0,
                    full: true,
                },
            )
        };
        let v = check_invariants(&[ck(1.0, 16), ck(2.0, 8)]);
        assert!(v.iter().any(|s| s.contains("regressed")), "{v:?}");
    }

    #[test]
    fn double_exclusion_is_flagged_and_cleared_by_preemption() {
        let ex = |t: f64| {
            Event::manager(
                t,
                EventKind::VmExcluded {
                    vm: 3,
                    consecutive_misses: 2,
                },
            )
        };
        let v = check_invariants(&[ex(1.0), ex(2.0)]);
        assert!(v.iter().any(|s| s.contains("excluded twice")), "{v:?}");
        // Preemption ends the episode, so a later exclusion is legal.
        let ok = check_invariants(&[
            ex(1.0),
            Event::manager(2.0, EventKind::Preemption { vm: 3 }),
            ex(3.0),
        ]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn degraded_must_alternate() {
        let enter = Event::manager(
            1.0,
            EventKind::DegradedEnter {
                gpus: 0,
                reason: "x".into(),
            },
        );
        let v = check_invariants(&[enter.clone(), enter]);
        assert!(v.iter().any(|s| s.contains("already degraded")), "{v:?}");
        let v = check_invariants(&[Event::manager(
            1.0,
            EventKind::DegradedExit {
                gpus: 4,
                paused_seconds: 60.0,
            },
        )]);
        assert!(v.iter().any(|s| s.contains("without")), "{v:?}");
    }

    #[test]
    fn overcommitted_morphs_are_flagged() {
        let v = check_invariants(&[Event::manager(
            1.0,
            EventKind::Morph {
                p: 4,
                d: 2,
                gpus_held: 6,
                gpus_used: 8,
                examples_per_sec: 10.0,
                examples_per_sec_per_gpu: 1.25,
                reconfigured: true,
                restart_seconds: 60.0,
                migration_seconds: 0.0,
            },
        )]);
        assert!(v.iter().any(|s| s.contains("uses 8 GPUs")), "{v:?}");
    }

    #[test]
    fn dishonest_downtime_pricing_is_flagged() {
        // A real reconfiguration must restart, not migrate; a morph never
        // prices both; and checkpoint writes must price a finite
        // non-negative pause.
        let morph = |reconfigured: bool, restart_seconds: f64, migration_seconds: f64| {
            Event::manager(
                1.0,
                EventKind::Morph {
                    p: 4,
                    d: 2,
                    gpus_held: 8,
                    gpus_used: 8,
                    examples_per_sec: 10.0,
                    examples_per_sec_per_gpu: 1.25,
                    reconfigured,
                    restart_seconds,
                    migration_seconds,
                },
            )
        };
        let v = check_invariants(&[morph(true, 0.0, 1.5)]);
        assert!(
            v.iter().any(|s| s.contains("priced as a live migration")),
            "{v:?}"
        );
        let v = check_invariants(&[morph(false, 60.0, 1.5)]);
        assert!(v.iter().any(|s| s.contains("both a restart")), "{v:?}");
        // Baseline replacements legitimately price a restart, and
        // zero-downtime replacements a migration: both are clean.
        assert!(check_invariants(&[morph(false, 60.0, 0.0)]).is_empty());
        assert!(check_invariants(&[morph(false, 0.0, 1.5)]).is_empty());
        let v = check_invariants(&[Event::manager(
            1.0,
            EventKind::Checkpoint {
                step: 16,
                gpus_held: 8,
                gpus_used: 8,
                p: 4,
                d: 2,
                examples_per_sec: 10.0,
                examples_per_sec_per_gpu: 1.25,
                write_seconds: f64::NAN,
                overlapped_seconds: -1.0,
                full: true,
            },
        )]);
        assert!(v.iter().any(|s| s.contains("write_seconds")), "{v:?}");
        assert!(v.iter().any(|s| s.contains("overlapped_seconds")), "{v:?}");
    }

    #[test]
    fn unpriced_or_detached_lost_work_is_flagged() {
        let v = check_invariants(&[Event::manager(
            1.0,
            EventKind::LostWork {
                minibatches: 0,
                seconds: 0.0,
            },
        )]);
        assert!(v.iter().any(|s| s.contains("zero minibatches")), "{v:?}");
        assert!(v.iter().any(|s| s.contains("not attached")), "{v:?}");
    }

    #[test]
    fn unaccounted_plan_search_candidates_are_flagged() {
        let search = |simulated: u64| {
            Event::manager(
                1.0,
                EventKind::PlanSearch {
                    candidates: 10,
                    simulated,
                    memo_hits: 3,
                    analytic_fallbacks: 1,
                },
            )
        };
        assert!(check_invariants(&[search(6)]).is_empty());
        let v = check_invariants(&[search(5)]);
        assert!(v.iter().any(|s| s.contains("loses candidates")), "{v:?}");
    }

    #[test]
    fn ci_smoke_digests_match_the_golden_corpus() {
        // The 8-seed CI chaos smoke (`chaos_sweep -- 8`) is pinned here:
        // `golden_digests.txt` holds the stream-invariant digest of every
        // seed's full event stream on the Figure-8 workload. Same seed
        // must mean byte-identical stream — any change to the manager,
        // planner, injector, or event schema that perturbs a replay shows
        // up as a digest mismatch and must be re-pinned deliberately.
        use varuna::{Calibration, VarunaCluster};
        use varuna_cluster::trace::ClusterTrace;
        use varuna_models::ModelZoo;

        use crate::config::ChaosConfig;
        use crate::harness::run_chaos;

        let golden: Vec<(u64, u64)> = include_str!("../golden_digests.txt")
            .lines()
            .map(|l| {
                let (seed, digest) = l.split_once(' ').expect("corpus line is `seed digest`");
                (
                    seed.parse().expect("seed"),
                    u64::from_str_radix(digest, 16).expect("digest"),
                )
            })
            .collect();
        assert_eq!(golden.len(), 8, "the CI smoke pins exactly 8 seeds");

        let calib =
            Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(160));
        let base = ClusterTrace::generate_spot_1gpu(40, 60, 3.0, 10.0, 7);
        for (seed, expected) in golden {
            let run = run_chaos(&calib, &base, &ChaosConfig::from_seed(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert!(run.is_clean(), "seed {seed}: {:?}", run.violations);
            assert_eq!(
                run.digest, expected,
                "seed {seed}: stream digest {:016x} drifted from the golden corpus",
                run.digest
            );
        }
    }

    #[test]
    fn forward_moving_fallback_is_flagged() {
        let v = check_invariants(&[Event::manager(
            1.0,
            EventKind::CheckpointFallback {
                from_step: 16,
                to_step: 32,
            },
        )]);
        assert!(v.iter().any(|s| s.contains("advances")), "{v:?}");
    }
}
