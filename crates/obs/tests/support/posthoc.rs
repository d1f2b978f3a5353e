//! Reference oracle for the attribution engine: the batch algorithm
//! `profile()` replaced, kept in tests only and built on public types.
//!
//! It sorts every lane's busy intervals and sweeps them once, clipping to
//! the known makespan, then walks the op graph *backwards* from the last
//! op to finish. The engine folds the same quantities forwards, one event
//! at a time. On streams whose `(stage, replica, op, micro)` keys are
//! unique and whose ops have positive durations the two must agree bit
//! for bit on `makespan`, `pipeline_end`, the lanes and the critical
//! path; [`check`] asserts that.

use std::collections::{BTreeMap, HashMap};

use varuna_obs::{profile, CriticalPath, Event, EventKind, LaneProfile, ProfileSpan};

/// The quantities the oracle recomputes.
struct Posthoc {
    makespan: f64,
    pipeline_end: f64,
    lanes: Vec<LaneProfile>,
    critical_path: Option<CriticalPath>,
}

/// One lane's busy intervals: `(start, end, kind)`.
type Intervals = Vec<(f64, f64, Busy)>;

#[derive(Clone, Copy)]
enum Busy {
    Forward,
    Recompute,
    Backward,
    Send,
    Allreduce,
}

/// Recomputes the attribution of `events` by sort-and-sweep plus a
/// backward critical-path walk.
fn attribute(events: &[Event]) -> Posthoc {
    let mut makespan: f64 = 0.0;
    let mut pipeline_end: f64 = 0.0;
    let mut lanes: BTreeMap<(usize, usize), Intervals> = BTreeMap::new();
    let mut ops: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut allreduces = Vec::new();
    let mut spans = Vec::new();
    for e in events {
        let end = match &e.kind {
            EventKind::SendBusy { seconds, .. } | EventKind::Transfer { seconds, .. } => {
                e.t_sim + seconds
            }
            _ => e.t_sim,
        };
        if end.is_finite() {
            makespan = makespan.max(end);
        }
        match &e.kind {
            EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                start,
            } => {
                let kind = match op {
                    'F' => Busy::Forward,
                    'R' => Busy::Recompute,
                    _ => Busy::Backward,
                };
                let lane = (*stage, *replica);
                lanes
                    .entry(lane)
                    .or_default()
                    .push((start.max(0.0), e.t_sim, kind));
                *ops.entry(lane).or_default() += 1;
                pipeline_end = pipeline_end.max(e.t_sim);
                spans.push(ProfileSpan {
                    stage: *stage,
                    replica: *replica,
                    op: *op,
                    micro: *micro,
                    start: *start,
                    end: e.t_sim,
                });
            }
            EventKind::SendBusy {
                stage,
                replica,
                seconds,
                ..
            } => lanes.entry((*stage, *replica)).or_default().push((
                e.t_sim.max(0.0),
                e.t_sim + seconds,
                Busy::Send,
            )),
            EventKind::Allreduce { stage, seconds, .. } => {
                allreduces.push((*stage, (e.t_sim - seconds).max(0.0), e.t_sim));
            }
            _ => {}
        }
    }
    // An allreduce occupies every lane of its stage, or a synthetic
    // replica-0 lane when the stage ran no ops.
    for (stage, start, end) in allreduces {
        let mut keys: Vec<(usize, usize)> = lanes
            .range((stage, 0)..(stage + 1, 0))
            .map(|(k, _)| *k)
            .collect();
        if keys.is_empty() {
            keys.push((stage, 0));
        }
        for k in keys {
            lanes
                .entry(k)
                .or_default()
                .push((start, end, Busy::Allreduce));
        }
    }

    let lanes = lanes
        .into_iter()
        .map(|((stage, replica), mut ivs)| {
            ivs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            sweep(
                stage,
                replica,
                ops.get(&(stage, replica)).copied().unwrap_or(0),
                &ivs,
                makespan,
            )
        })
        .collect();
    Posthoc {
        makespan,
        pipeline_end,
        lanes,
        critical_path: critical_path(&spans),
    }
}

/// One cursor sweep over a lane's sorted intervals on `[0, makespan]`.
fn sweep(
    stage: usize,
    replica: usize,
    ops: usize,
    intervals: &[(f64, f64, Busy)],
    makespan: f64,
) -> LaneProfile {
    let mut l = LaneProfile {
        stage,
        replica,
        forward: 0.0,
        recompute: 0.0,
        backward: 0.0,
        send: 0.0,
        allreduce: 0.0,
        warmup: 0.0,
        stall: 0.0,
        drain: 0.0,
        ops,
    };
    let mut cursor: f64 = 0.0;
    let mut first = true;
    for &(start, end, kind) in intervals {
        let gap = start - cursor;
        if gap > 0.0 {
            if first {
                l.warmup += gap;
            } else {
                l.stall += gap;
            }
            cursor = start;
        }
        first = false;
        let end = end.min(makespan);
        let contrib = end - start.max(cursor);
        if contrib > 0.0 {
            match kind {
                Busy::Forward => l.forward += contrib,
                Busy::Recompute => l.recompute += contrib,
                Busy::Backward => l.backward += contrib,
                Busy::Send => l.send += contrib,
                Busy::Allreduce => l.allreduce += contrib,
            }
        }
        cursor = cursor.max(end);
    }
    l.drain = (makespan - cursor).max(0.0);
    l
}

/// Walks backwards from the last op to finish, each step to the
/// latest-finishing predecessor (lane, upstream forward, downstream
/// backward) that ended by the op's start, then sums the path forwards.
fn critical_path(spans: &[ProfileSpan]) -> Option<CriticalPath> {
    let last = (0..spans.len()).min_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        y.end
            .total_cmp(&x.end)
            .then((x.stage, x.replica, x.micro).cmp(&(y.stage, y.replica, y.micro)))
    })?;
    let mut by_lane: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    let mut by_key = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_lane.entry((s.stage, s.replica)).or_default().push(i);
        by_key.insert((s.stage, s.replica, s.op, s.micro), i);
    }
    let mut lane_prev = vec![None; spans.len()];
    for lane in by_lane.values_mut() {
        lane.sort_by(|&a, &b| {
            (spans[a].start.total_cmp(&spans[b].start)).then(spans[a].end.total_cmp(&spans[b].end))
        });
        for w in lane.windows(2) {
            lane_prev[w[1]] = Some(w[0]);
        }
    }

    // Each step moves to an op that ended by the current op's start, so
    // with positive durations the walk cannot revisit an op.
    let mut path = vec![last];
    while path.len() <= spans.len() {
        let cur = path[path.len() - 1];
        let s = &spans[cur];
        let upstream = (s.op == 'F' && s.stage > 0)
            .then(|| by_key.get(&(s.stage - 1, s.replica, 'F', s.micro)))
            .flatten();
        let downstream = (s.op == 'B')
            .then(|| by_key.get(&(s.stage + 1, s.replica, 'B', s.micro)))
            .flatten();
        let pred = [lane_prev[cur], upstream.copied(), downstream.copied()]
            .into_iter()
            .flatten()
            .filter(|&i| spans[i].end <= s.start + 1e-9)
            .max_by(|&a, &b| {
                spans[a].end.total_cmp(&spans[b].end).then_with(|| {
                    (spans[b].stage, spans[b].replica).cmp(&(spans[a].stage, spans[a].replica))
                })
            });
        match pred {
            Some(p) => path.push(p),
            None => break,
        }
    }

    path.reverse();
    let first = &spans[path[0]];
    let mut end = first.start;
    let mut compute = 0.0;
    let mut wait = first.start.max(0.0);
    let mut stage_seconds = vec![0.0; spans.iter().map(|s| s.stage).max().unwrap_or(0) + 1];
    for (k, &i) in path.iter().enumerate() {
        let s = &spans[i];
        if k > 0 {
            wait += (s.start - end).max(0.0);
        }
        end = s.end;
        compute += s.duration();
        stage_seconds[s.stage] += s.duration();
    }
    let mut bottleneck_stage = 0;
    for (s, &v) in stage_seconds.iter().enumerate() {
        if v > stage_seconds[bottleneck_stage] {
            bottleneck_stage = s;
        }
    }
    Some(CriticalPath {
        length: spans[last].end,
        compute_seconds: compute,
        wait_seconds: wait,
        ops: path.len(),
        bottleneck_stage,
        stage_seconds,
    })
}

fn lane_bits(l: &LaneProfile) -> [u64; 11] {
    [
        l.stage as u64,
        l.replica as u64,
        l.ops as u64,
        l.forward.to_bits(),
        l.recompute.to_bits(),
        l.backward.to_bits(),
        l.send.to_bits(),
        l.allreduce.to_bits(),
        l.warmup.to_bits(),
        l.stall.to_bits(),
        l.drain.to_bits(),
    ]
}

fn path_bits(c: &CriticalPath) -> Vec<u64> {
    let mut v = vec![
        c.length.to_bits(),
        c.compute_seconds.to_bits(),
        c.wait_seconds.to_bits(),
        c.ops as u64,
        c.bottleneck_stage as u64,
    ];
    v.extend(c.stage_seconds.iter().map(|x| x.to_bits()));
    v
}

/// Compares `profile(events)` with the oracle bit for bit on `makespan`,
/// `pipeline_end`, every lane and the critical path.
///
/// # Errors
///
/// Names the first field that differs.
pub fn check(events: &[Event]) -> Result<(), String> {
    let got = profile(events);
    let want = attribute(events);
    if got.makespan.to_bits() != want.makespan.to_bits() {
        return Err(format!(
            "makespan {} vs oracle {}",
            got.makespan, want.makespan
        ));
    }
    if got.pipeline_end.to_bits() != want.pipeline_end.to_bits() {
        return Err(format!(
            "pipeline_end {} vs oracle {}",
            got.pipeline_end, want.pipeline_end
        ));
    }
    let got_lanes: Vec<_> = got.lanes.iter().map(lane_bits).collect();
    let want_lanes: Vec<_> = want.lanes.iter().map(lane_bits).collect();
    if got_lanes != want_lanes {
        return Err(format!("lanes {:?} vs oracle {:?}", got.lanes, want.lanes));
    }
    if got.critical_path.as_ref().map(path_bits) != want.critical_path.as_ref().map(path_bits) {
        return Err(format!(
            "critical path {:?} vs oracle {:?}",
            got.critical_path, want.critical_path
        ));
    }
    Ok(())
}
