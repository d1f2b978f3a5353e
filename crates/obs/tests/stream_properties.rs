//! Property-based pins for the streaming profiler: random event
//! streams, random (lane-preserving) shard assignments, and random merge
//! groupings must reproduce `profile()` of the whole stream
//! byte-for-byte, and every intermediate partial must satisfy the same
//! sum-to-makespan and downtime identities the sealed report does. The
//! makespan, lanes and critical path of every stream (and every prefix)
//! also match the test-only sort-and-sweep oracle bit for bit.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use varuna_obs::{profile, Event, EventKind, PartialReport, StreamConfig, StreamingProfiler};

#[path = "support/posthoc.rs"]
mod posthoc;

const MAX_P: usize = 4;

/// Same dependency-consistent GPipe generator `profile_properties.rs`
/// uses: forwards chain down the pipeline, backwards chain back up, every
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

/// Appends per-stage allreduces and a little control-plane traffic after
/// the data plane, so the merge also exercises broadcast ghosting and
/// the shard-0-style control summation.
fn garnish(events: &mut Vec<Event>, p: usize, ctrl: &[(f64, f64)]) {
    let end = events.iter().map(|e| e.t_sim).fold(0.0f64, f64::max);
    for s in 0..p {
        events.push(Event::exec(
            end + 1.0 + s as f64 * 0.25,
            EventKind::Allreduce {
                stage: s,
                bytes: 1e9,
                ring: 2,
                seconds: 0.5,
            },
        ));
    }
    let mut t = end + 2.0;
    for &(dt, secs) in ctrl {
        t += dt;
        events.push(Event::manager(
            t,
            EventKind::LostWork {
                minibatches: 1,
                seconds: secs,
            },
        ));
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Routes the stream across `shards` profilers with a *random* but
/// lane-preserving assignment: each replica maps to one shard, each
/// allreduce stage has one owner (ghosted everywhere else), and all
/// control traffic rides one shard — the invariants `ShardedSink`'s
/// canonical routing is one instance of.
fn route(
    events: &[Event],
    shards: usize,
    replica_salt: u64,
    owner_salt: u64,
    ctrl_shard: usize,
) -> Vec<PartialReport> {
    let mut profs: Vec<StreamingProfiler> = (0..shards)
        .map(|_| StreamingProfiler::new(StreamConfig::default()))
        .collect();
    for e in events {
        match &e.kind {
            EventKind::OpStart { replica, .. }
            | EventKind::OpEnd { replica, .. }
            | EventKind::SendBusy { replica, .. } => {
                let mut s = replica_salt ^ (*replica as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                profs[(xorshift(&mut s) % shards as u64) as usize].observe(e);
            }
            EventKind::Allreduce { stage, .. } => {
                let mut s = owner_salt ^ (*stage as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let owner = (xorshift(&mut s) % shards as u64) as usize;
                for (k, prof) in profs.iter_mut().enumerate() {
                    if k == owner {
                        prof.observe(e);
                    } else {
                        prof.observe_ghost(e);
                    }
                }
            }
            _ => profs[ctrl_shard % shards].observe(e),
        }
    }
    profs.into_iter().map(|p| p.into_partial()).collect()
}

/// Folds the partials in a random binary grouping.
fn merge_randomly(mut parts: Vec<PartialReport>, mut seed: u64) -> PartialReport {
    while parts.len() > 1 {
        let i = (xorshift(&mut seed) % parts.len() as u64) as usize;
        let a = parts.swap_remove(i);
        let j = (xorshift(&mut seed) % parts.len() as u64) as usize;
        let b = parts.swap_remove(j);
        parts.push(a.merge(b));
    }
    parts.pop().expect("at least one partial")
}

fn assert_partial_identities(r: &varuna_obs::ProfileReport) -> Result<(), TestCaseError> {
    for lane in &r.lanes {
        prop_assert!(
            (lane.total() - r.makespan).abs() <= 1e-9 * r.makespan.max(1.0),
            "lane ({}, {}) total {} vs makespan {}",
            lane.stage,
            lane.replica,
            lane.total(),
            r.makespan
        );
        prop_assert!(lane.warmup >= 0.0 && lane.stall >= 0.0 && lane.drain >= 0.0);
    }
    let dt = &r.downtime;
    prop_assert!(
        (dt.useful_seconds + dt.downtime_seconds() - r.makespan).abs()
            <= 1e-9 * r.makespan.max(1.0),
        "useful {} + downtime {} != makespan {}",
        dt.useful_seconds,
        dt.downtime_seconds(),
        r.makespan
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streamed shards merged in a random grouping reproduce `profile()`
    /// of the whole stream byte-for-byte, with zero
    /// attribution violations, and every intermediate partial (each
    /// shard alone, and every merge step's operands) satisfies the
    /// sum-to-makespan and downtime identities.
    #[test]
    fn sharded_streams_merge_to_posthoc_bytes(
        p in 1usize..MAX_P + 1,
        d in 1usize..4,
        n_micro in 1usize..6,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        n_ctrl in 0usize..4,
        ctrl_dts in vec(0.1f64..5.0, 4..5),
        ctrl_secs in vec(0.0f64..3.0, 4..5),
        shards in 1usize..5,
        salt in any::<u64>(),
        merge_seed in any::<u64>(),
    ) {
        let replica_salt = salt;
        let owner_salt = salt.rotate_left(21);
        let ctrl_shard = (salt >> 7) as usize % 4;
        let ctrl: Vec<(f64, f64)> = (0..n_ctrl).map(|i| (ctrl_dts[i], ctrl_secs[i])).collect();
        let mut events = gpipe_events(p, d, n_micro, &fwd[..p], &bwd[..p]);
        garnish(&mut events, p, &ctrl);
        let oracle = posthoc::check(&events);
        prop_assert!(oracle.is_ok(), "{:?}", oracle);
        let sealed = profile(&events).to_json();

        let parts = route(&events, shards, replica_salt, owner_salt, ctrl_shard);
        let mut owned_events = 0;
        for part in &parts {
            owned_events += part.events();
            prop_assert_eq!(part.counters().violations(), 0);
            assert_partial_identities(&part.report())?;
        }
        prop_assert_eq!(owned_events, events.len(), "broadcasts must count once");

        let merged = merge_randomly(parts, merge_seed);
        prop_assert_eq!(merged.counters().violations(), 0);
        assert_partial_identities(&merged.report())?;
        prop_assert_eq!(merged.into_report().to_json(), sealed);
    }

    /// Every prefix of the stream — not just the end — reproduces
    /// `profile()` of that prefix byte-for-byte, so the live `--follow`
    /// view is exact at all times, its identities hold, and it agrees
    /// with the oracle.
    #[test]
    fn every_prefix_matches_posthoc_bytes(
        p in 1usize..MAX_P + 1,
        n_micro in 1usize..4,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        n_ctrl in 0usize..3,
        ctrl_dts in vec(0.1f64..5.0, 3..4),
        ctrl_secs in vec(0.0f64..3.0, 3..4),
    ) {
        let ctrl: Vec<(f64, f64)> = (0..n_ctrl).map(|i| (ctrl_dts[i], ctrl_secs[i])).collect();
        let mut events = gpipe_events(p, 1, n_micro, &fwd[..p], &bwd[..p]);
        garnish(&mut events, p, &ctrl);
        let mut prof = StreamingProfiler::new(StreamConfig::default());
        for (i, e) in events.iter().enumerate() {
            prof.observe(e);
            let live = prof.snapshot().into_report();
            assert_partial_identities(&live)?;
            prop_assert_eq!(
                live.to_json(),
                profile(&events[..=i]).to_json(),
                "prefix of {} events diverged",
                i + 1
            );
            let oracle = posthoc::check(&events[..=i]);
            prop_assert!(oracle.is_ok(), "{:?}", oracle);
        }
    }

    /// A finite reorder window larger than the longest interval is still
    /// exact on time-ordered streams, while keeping the pending buffer
    /// (and total resident state) bounded.
    #[test]
    fn finite_window_is_exact_and_bounded_on_ordered_streams(
        p in 1usize..MAX_P + 1,
        d in 1usize..3,
        n_micro in 2usize..8,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
    ) {
        let mut events = gpipe_events(p, d, n_micro, &fwd[..p], &bwd[..p]);
        garnish(&mut events, p, &[]);
        events.sort_by(|a, b| a.t_sim.total_cmp(&b.t_sim));
        let sealed = profile(&events).to_json();

        // Longest interval: ops span at most max(fwd)+max(bwd); the
        // garnish allreduce lasts 0.5 s. Any window beyond that plus the
        // worst inversion between start-order and end-order is exact.
        let window = 4.0;
        let mut prof = StreamingProfiler::new(StreamConfig::windowed(window, usize::MAX));
        for e in &events {
            prof.observe(e);
        }
        prop_assert_eq!(prof.counters().violations(), 0);
        // Bounded: pending never holds more than the intervals that can
        // coexist inside one window, far below the full stream.
        let lanes = p * d;
        let per_lane_in_window = (window / fwd[..p]
            .iter()
            .chain(&bwd[..p])
            .cloned()
            .fold(f64::INFINITY, f64::min))
            .ceil() as usize
            + 2;
        prop_assert!(
            prof.counters().peak_pending <= lanes * per_lane_in_window + p,
            "peak pending {} not bounded by the window (lanes {}, per-lane {})",
            prof.counters().peak_pending,
            lanes,
            per_lane_in_window
        );
        prop_assert_eq!(prof.into_partial().into_report().to_json(), sealed);
    }
}

fn op(stage: usize, replica: usize, op: char, micro: usize, start: f64, end: f64) -> Event {
    Event::exec(
        end,
        EventKind::OpEnd {
            stage,
            replica,
            op,
            micro,
            start,
        },
    )
}

/// Hand-built streams covering what the generators above do not: sends,
/// transfers, overlapping intervals, an allreduce-only stage, control
/// traffic, and the empty stream.
#[test]
fn fixed_streams_match_the_posthoc_oracle() {
    let allreduce = |t: f64, stage: usize, seconds: f64| {
        Event::exec(
            t,
            EventKind::Allreduce {
                stage,
                bytes: 1e9,
                ring: 2,
                seconds,
            },
        )
    };
    let send = |t: f64, stage: usize, seconds: f64| {
        Event::exec(
            t,
            EventKind::SendBusy {
                stage,
                replica: 0,
                micro: 0,
                seconds,
            },
        )
    };
    let streams = vec![
        vec![],
        vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            op(0, 0, 'F', 1, 1.0, 2.0),
            op(1, 0, 'F', 0, 1.5, 2.5),
            op(1, 0, 'B', 0, 2.5, 4.5),
            op(0, 0, 'B', 0, 5.0, 7.0),
        ],
        vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            send(1.0, 0, 0.5),
            Event::exec(
                1.2,
                EventKind::Transfer {
                    from_stage: 0,
                    to_stage: 1,
                    replica: 0,
                    micro: 0,
                    bytes: 1e6,
                    seconds: 0.125,
                },
            ),
            op(1, 0, 'F', 0, 1.625, 2.625),
            op(1, 0, 'B', 0, 2.625, 3.625),
            op(0, 0, 'B', 0, 4.0, 5.0),
            allreduce(5.5, 0, 0.5),
            allreduce(5.75, 1, 0.25),
            Event::manager(
                6.0,
                EventKind::LostWork {
                    minibatches: 1,
                    seconds: 0.5,
                },
            ),
        ],
        vec![
            op(1, 0, 'B', 0, 0.0, 1.0),
            send(1.0, 1, 1.0),
            allreduce(2.5, 1, 1.5),
        ],
        vec![allreduce(2.0, 3, 0.5)],
    ];
    for events in &streams {
        if let Err(e) = posthoc::check(events) {
            panic!("{e} on {events:?}");
        }
    }
}
