//! Property-based invariants of the time-attribution profiler.
//!
//! The generator builds dependency-consistent GPipe-style schedules
//! (forwards chain down the pipeline, backwards chain back up, each lane
//! runs its ops back to back as soon as inputs arrive, zero link
//! latency). On such schedules four properties must hold exactly:
//!
//! 1. every lane's component decomposition sums to the makespan,
//! 2. all bubble terms are nonnegative and the bubble fraction is in
//!    `[0, 1)`,
//! 3. critical path length <= makespan <= sum of lane busy times (the
//!    chain construction leaves no instant where every lane idles),
//! 4. a JSONL round trip of the stream profiles identically,
//! 5. makespan, lanes and critical path equal the test-only
//!    sort-and-sweep oracle's bit for bit.

use proptest::collection::vec;
use proptest::prelude::*;
use varuna_obs::{downtime, profile, Event, EventKind};

#[path = "support/posthoc.rs"]
mod posthoc;

/// Stages never exceed this, so duration vectors are drawn at this
/// length and sliced to the drawn `p`.
const MAX_P: usize = 4;

/// Per-replica GPipe schedule over `p` stages and `n_micro` micros with
/// per-stage forward/backward durations. Start times respect both the
/// lane order and the producer dependency with zero latency, so every
/// op starts exactly when its latest prerequisite ends.
fn gpipe_events(p: usize, d: usize, n_micro: usize, fwd: &[f64], bwd: &[f64]) -> Vec<Event> {
    let mut events = Vec::new();
    for r in 0..d {
        let mut lane_free = vec![0.0f64; p];
        let mut f_end = vec![vec![0.0f64; p]; n_micro];
        let mut b_end = vec![vec![0.0f64; p]; n_micro];
        for (m, f_row) in f_end.iter_mut().enumerate() {
            for s in 0..p {
                let dep = if s == 0 { 0.0 } else { f_row[s - 1] };
                let start = lane_free[s].max(dep);
                let end = start + fwd[s];
                lane_free[s] = end;
                f_row[s] = end;
                events.push(Event::exec(
                    end,
                    EventKind::OpEnd {
                        stage: s,
                        replica: r,
                        op: 'F',
                        micro: m,
                        start,
                    },
                ));
            }
        }
        for m in 0..n_micro {
            for s in (0..p).rev() {
                let dep = if s == p - 1 {
                    f_end[m][s]
                } else {
                    b_end[m][s + 1]
                };
                let start = lane_free[s].max(dep);
                let end = start + bwd[s];
                lane_free[s] = end;
                b_end[m][s] = end;
                events.push(Event::exec(
                    end,
                    EventKind::OpEnd {
                        stage: s,
                        replica: r,
                        op: 'B',
                        micro: m,
                        start,
                    },
                ));
            }
        }
    }
    events
}

/// One random manager-stream atom for the downtime generator below:
/// `choice` selects the event class, `a`/`b` supply its priced fields.
fn downtime_events(atoms: &[(f64, u32, f64, f64)]) -> (Vec<Event>, f64) {
    let mut t = 0.0f64;
    let mut events = Vec::new();
    for &(dt, choice, a, b) in atoms {
        t += dt;
        match choice % 5 {
            0 => {
                // A morph: reconfigurations price a restart, same-shape
                // replacements a live migration — never both.
                let reconfigured = choice >= 5;
                events.push(Event::manager(
                    t,
                    EventKind::Morph {
                        p: 4,
                        d: 2,
                        gpus_held: 8,
                        gpus_used: 8,
                        examples_per_sec: 10.0,
                        examples_per_sec_per_gpu: 1.25,
                        reconfigured,
                        restart_seconds: if reconfigured { a } else { 0.0 },
                        migration_seconds: if reconfigured { 0.0 } else { b },
                    },
                ));
            }
            1 => {
                // A checkpoint: `a` stalls the pipeline, `b` rides the
                // background lane hidden behind compute.
                events.push(Event::manager(
                    t,
                    EventKind::Checkpoint {
                        step: 16,
                        gpus_held: 8,
                        gpus_used: 8,
                        p: 4,
                        d: 2,
                        examples_per_sec: 10.0,
                        examples_per_sec_per_gpu: 1.25,
                        write_seconds: a,
                        overlapped_seconds: b,
                        full: choice >= 5,
                    },
                ));
            }
            2 => {
                events.push(Event::manager(
                    t,
                    EventKind::DegradedEnter {
                        gpus: 0,
                        reason: "chaos".into(),
                    },
                ));
                t += a;
                events.push(Event::manager(
                    t,
                    EventKind::DegradedExit {
                        gpus: 8,
                        paused_seconds: a,
                    },
                ));
            }
            3 => {
                events.push(Event::manager(
                    t,
                    EventKind::LostWork {
                        minibatches: 3,
                        seconds: a,
                    },
                ));
            }
            _ => {
                events.push(Event::recovery(
                    t,
                    EventKind::RecoveryReplay {
                        wal_records: 12,
                        torn: false,
                        dropped_bytes: 0,
                        replay_seconds: a * 0.01,
                    },
                ));
            }
        }
    }
    (events, t + 10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random manager streams mixing restarts, live migrations, and
    /// overlapped checkpoint writes: the priced components re-derived
    /// independently must match the profiler term by term, sum with
    /// useful time to the makespan, and stay byte-identical when every
    /// overlapped second is zeroed out — overlapped writes are hidden
    /// behind compute and must never leak into the priced total.
    #[test]
    fn downtime_identity_holds_with_overlap_and_migrations(
        n in 0usize..40,
        dts in vec(0.1f64..100.0, 40..41),
        choices in vec(0u32..10, 40..41),
        avals in vec(0.0f64..50.0, 40..41),
        bvals in vec(0.0f64..50.0, 40..41),
    ) {
        let atoms: Vec<(f64, u32, f64, f64)> = (0..n)
            .map(|i| (dts[i], choices[i], avals[i], bvals[i]))
            .collect();
        let (events, makespan) = downtime_events(&atoms);
        let d = downtime(&events, makespan);

        let mut restarts = 0.0;
        let mut migrations = 0.0;
        let mut writes = 0.0;
        let mut overlapped = 0.0;
        for e in &events {
            match &e.kind {
                EventKind::Morph { restart_seconds, migration_seconds, .. } => {
                    restarts += restart_seconds;
                    migrations += migration_seconds;
                }
                EventKind::Checkpoint { write_seconds, overlapped_seconds, .. } => {
                    writes += write_seconds;
                    overlapped += overlapped_seconds;
                }
                _ => {}
            }
        }
        prop_assert!((d.morph_restart_seconds - restarts).abs() < 1e-9);
        prop_assert!((d.migration_seconds - migrations).abs() < 1e-9);
        prop_assert!((d.checkpoint_write_seconds - writes).abs() < 1e-9);
        prop_assert!((d.checkpoint_overlapped_seconds - overlapped).abs() < 1e-9);
        prop_assert!(
            (d.useful_seconds + d.downtime_seconds() - makespan).abs()
                <= 1e-9 * makespan.max(1.0),
            "useful {} + downtime {} != makespan {}",
            d.useful_seconds, d.downtime_seconds(), makespan
        );

        // Zeroing the overlapped seconds changes nothing priced: the
        // same stream with all background-lane time erased produces the
        // identical downtime total and useful remainder.
        let erased: Vec<Event> = events
            .iter()
            .cloned()
            .map(|mut e| {
                if let EventKind::Checkpoint { overlapped_seconds, .. } = &mut e.kind {
                    *overlapped_seconds = 0.0;
                }
                e
            })
            .collect();
        let d0 = downtime(&erased, makespan);
        prop_assert_eq!(d0.checkpoint_overlapped_seconds, 0.0);
        prop_assert!((d0.downtime_seconds() - d.downtime_seconds()).abs() < 1e-12);
        prop_assert!((d0.useful_seconds - d.useful_seconds).abs() < 1e-12);
    }

    #[test]
    fn components_sum_to_the_makespan(
        p in 1usize..MAX_P + 1,
        d in 1usize..3,
        n_micro in 1usize..7,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
    ) {
        let events = gpipe_events(p, d, n_micro, &fwd[..p], &bwd[..p]);
        let r = profile(&events);
        prop_assert!(r.makespan > 0.0);
        let oracle = posthoc::check(&events);
        prop_assert!(oracle.is_ok(), "{:?}", oracle);
        for lane in &r.lanes {
            prop_assert!(
                (lane.total() - r.makespan).abs() <= 1e-9 * r.makespan,
                "lane ({}, {}): total {} vs makespan {}",
                lane.stage, lane.replica, lane.total(), r.makespan
            );
        }
    }

    #[test]
    fn bubbles_are_nonnegative(
        p in 1usize..MAX_P + 1,
        d in 1usize..3,
        n_micro in 1usize..7,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
    ) {
        let events = gpipe_events(p, d, n_micro, &fwd[..p], &bwd[..p]);
        let r = profile(&events);
        for lane in &r.lanes {
            prop_assert!(lane.warmup >= 0.0);
            prop_assert!(lane.stall >= 0.0);
            prop_assert!(lane.drain >= 0.0);
        }
        prop_assert!(r.bubble_fraction >= 0.0 && r.bubble_fraction < 1.0);
        for s in &r.stages {
            prop_assert!(s.bubble() >= 0.0);
            prop_assert!(s.straggler >= 1.0 - 1e-12, "max < mean is impossible");
        }
    }

    #[test]
    fn critical_path_bounds_the_makespan(
        p in 1usize..MAX_P + 1,
        d in 1usize..3,
        n_micro in 1usize..7,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
    ) {
        let events = gpipe_events(p, d, n_micro, &fwd[..p], &bwd[..p]);
        let r = profile(&events);
        let cp = r.critical_path.as_ref().expect("schedules have ops");
        let total_busy: f64 = r.lanes.iter().map(|l| l.busy()).sum();
        prop_assert!(
            cp.length <= r.makespan + 1e-9 * r.makespan,
            "critical path {} exceeds makespan {}", cp.length, r.makespan
        );
        prop_assert!(
            r.makespan <= total_busy + 1e-9 * total_busy,
            "makespan {} exceeds total busy {}", r.makespan, total_busy
        );
        // Zero-latency chained schedules have a fully-busy critical
        // chain: the path explains the entire makespan.
        prop_assert!(
            (cp.length - r.makespan).abs() <= 1e-9 * r.makespan,
            "critical path {} does not reach the makespan {}", cp.length, r.makespan
        );
        prop_assert!(
            (cp.compute_seconds + cp.wait_seconds - cp.length).abs() <= 1e-9 * cp.length,
            "path decomposition leaks"
        );
    }

    #[test]
    fn jsonl_round_trip_profiles_identically(
        p in 1usize..MAX_P + 1,
        d in 1usize..3,
        n_micro in 1usize..7,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
    ) {
        let events = gpipe_events(p, d, n_micro, &fwd[..p], &bwd[..p]);
        let jsonl: String = events
            .iter()
            .map(|e| serde_json::to_string(e).expect("events serialize") + "\n")
            .collect();
        let back = varuna_obs::events_from_jsonl(&jsonl).expect("round trip parses");
        prop_assert_eq!(profile(&back), profile(&events));
    }
}
