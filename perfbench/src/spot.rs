//! `spot_replay`: one GPT-2 2.5B job on seeded slices of the Figure 8
//! spot trace, with the zero-downtime policy and the default analytic
//! oracle. `Manager::replay_walled` runs with the benchmark's own
//! `StreamSink` on the bus; the log is then encoded, torn inside its last
//! frame, decoded, and recovered through `Manager::recover_on_bus`.
//! Planning (`core::planner` -> `core::simulator`) does nearly all the
//! work; the emulator never runs.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use varuna::{Calibration, Manager, ManagerWal, VarunaCluster, WalRecord};
use varuna_chaos::digest_control_events;
use varuna_cluster::trace::ClusterTrace;
use varuna_models::ModelZoo;
use varuna_obs::{profile, Event, EventBus, EventKind, StreamConfig, StreamSink, VecSink};

use crate::common::{
    digest, first_setup_round, later_setup_round, mean, set_latencies, tear_last_frame, SetupClock,
};
use crate::events::{morph_levels, ratio, time_weighted_ex_per_s, ManagerCounts};
use crate::inputs::{spot_traces, SPOT_LEVELS, SPOT_TARGET_GPUS};
use crate::report::Report;
use crate::retime;
use crate::spans::{timed, SharedTracer, Tracer};
use crate::stats::median;
use crate::wrap::{ClockSink, TimedSink};

/// Mini-batch size of the replayed job. The Figure 8 job's 8192 makes a
/// 6 h slice take ~20 s to replay; 1024 keeps the same capacity levels
/// and decisions at about a tenth of the planning cost.
pub const M_TOTAL: usize = 1024;
/// Micro-batch size.
const MICRO: usize = 4;
/// Torn-tail recoveries per iteration; `recover_ms` is the median of all.
const RECOVER_REPS: usize = 5;

fn manager(calib: &Calibration) -> Manager<'_> {
    Manager::new(calib, M_TOTAL, MICRO).with_zero_downtime()
}

/// One replay of a slice.
struct Replay {
    ok: Result<(), String>,
    events: Vec<Event>,
    stream: StreamSink,
    wal: ManagerWal,
    ms: f64,
    /// Host ms of each cold re-plan inside the replay.
    plan_ms: Vec<f64>,
}

/// Host ms of each cold re-plan inside a replay, timed from outside by
/// the bus clock: for every committed morph at a capacity level the
/// replay had not planned for yet, the time from the last event before
/// the plan attempt to the attempt's first event. Nothing but the plan
/// (and summing the schedulable GPUs) runs in between.
fn cold_plan_ms(events: &[Event], stamps: &[Instant], start: Instant) -> Vec<f64> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let EventKind::Morph { gpus_held, .. } = e.kind else {
            continue;
        };
        if !seen.insert(gpus_held) {
            continue;
        }
        let mut a = i;
        while a > 0
            && matches!(
                events[a - 1].kind,
                EventKind::DegradedExit { .. }
                    | EventKind::LostWork { .. }
                    | EventKind::PlanSearch { .. }
            )
        {
            a -= 1;
        }
        let before = if a == 0 { start } else { stamps[a - 1] };
        out.push(stamps[a].duration_since(before).as_secs_f64() * 1e3);
    }
    out
}

fn replay(
    calib: &Calibration,
    trace: &ClusterTrace,
    tracer: Option<&SharedTracer>,
    id: u64,
) -> Replay {
    let mut mgr = manager(calib);
    let sink = VecSink::new();
    let stream = StreamSink::new(StreamConfig::default());
    let clock = ClockSink::default();
    let mut bus = match tracer {
        Some(t) => {
            let mut b = EventBus::with_sink(Box::new(TimedSink::new(sink.clone(), t.clone())));
            b.add_sink(Box::new(TimedSink::new(stream.clone(), t.clone())));
            b
        }
        None => {
            let mut b = EventBus::with_sink(Box::new(sink.clone()));
            b.add_sink(Box::new(stream.clone()));
            b
        }
    };
    bus.add_sink(Box::new(clock.clone()));
    let mut wal = ManagerWal::new();
    let start = Instant::now();
    let (res, ms) = timed(tracer, "manager.replay", Some(id), || {
        mgr.replay_walled(trace, &mut bus, &mut wal)
    });
    let events = sink.take();
    let plan_ms = cold_plan_ms(&events, &clock.take(), start);
    Replay {
        ok: res.map_err(|e| e.to_string()),
        events,
        stream,
        wal,
        ms,
        plan_ms,
    }
}

/// Records up to and including the last morph to a capacity level the
/// log had not planned for before: the run is killed while writing that
/// record. Recovery then re-plans exactly one level live (the plan cache
/// is rebuilt only from the logged morphs) and replays or recomputes the
/// rest. Killing inside the very last frame instead makes the recovery
/// cost depend on whether the slice happens to end on a first visit
/// (1 ms against 90 ms), which no seed controls.
fn kill_point(records: &[WalRecord]) -> usize {
    let mut seen = BTreeSet::new();
    let mut last = records.len();
    for (i, r) in records.iter().enumerate() {
        if let WalRecord::Morph { gpus_held, .. } = r {
            if seen.insert(*gpus_held) {
                last = i + 1;
            }
        }
    }
    last
}

/// One iteration: replay, then torn-tail recovery, with every check.
struct Iteration {
    replay_ms: f64,
    plan_ms: Vec<f64>,
    wall_ms: f64,
    recover_ms: Vec<f64>,
    encode_ms: f64,
    decode_ms: f64,
    bytes: usize,
    replayed: usize,
    torn: bool,
    digest: u64,
    wal_bytes: Vec<u8>,
    records: Vec<WalRecord>,
    events: Vec<Event>,
    sim_ex: f64,
    downtime_frac: f64,
}

fn iteration(
    calib: &Calibration,
    trace: &ClusterTrace,
    tracer: Option<&SharedTracer>,
    id: u64,
    rep: &mut Report,
) -> Iteration {
    let r = replay(calib, trace, tracer, id);
    let mut problems = Vec::new();
    if let Err(e) = &r.ok {
        problems.push(format!("replay failed: {e}"));
    }
    let (bytes, encode_ms) = timed(tracer, "wal.encode", None, || r.wal.to_bytes());
    let torn =
        tear_last_frame(&r.wal.truncated_bytes(kill_point(r.wal.records()))).unwrap_or_default();
    let mut it = Iteration {
        replay_ms: r.ms,
        plan_ms: r.plan_ms.clone(),
        wall_ms: 0.0,
        recover_ms: Vec::new(),
        encode_ms,
        decode_ms: 0.0,
        bytes: bytes.len(),
        replayed: 0,
        torn: false,
        digest: digest(&r.events),
        wal_bytes: Vec::new(),
        records: r.wal.records().to_vec(),
        events: Vec::new(),
        sim_ex: time_weighted_ex_per_s(&r.events, trace.duration_hours * 3600.0),
        downtime_frac: 0.0,
    };
    let want = digest_control_events(&r.events);
    for rep_i in 0..RECOVER_REPS {
        let (loaded, decode_ms) =
            timed(tracer, "wal.decode", None, || ManagerWal::from_bytes(&torn));
        let mut wal = match loaded {
            Ok(w) => w,
            Err(e) => {
                problems.push(format!("torn log does not decode: {e}"));
                break;
            }
        };
        let mut mgr = manager(calib);
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        let (rr, rec_ms) = timed(tracer, "manager.recover", None, || {
            mgr.recover_on_bus(trace, &mut bus, &mut wal)
        });
        it.recover_ms.push(decode_ms + rec_ms);
        if rep_i > 0 {
            continue;
        }
        it.decode_ms = decode_ms;
        match rr {
            Err(e) => problems.push(format!("recovery failed: {e}")),
            Ok(report) => {
                it.replayed = report.replayed_records;
                it.torn = report.torn.is_some();
                if !it.torn {
                    problems.push("torn tail not detected".to_string());
                }
            }
        }
        if digest_control_events(&sink.take()) != want {
            problems.push("recovered run differs from the uninterrupted one".to_string());
        }
        if wal.to_bytes() != bytes {
            problems.push("recovered log differs from the uninterrupted log".to_string());
        }
    }
    it.wall_ms = r.ms + encode_ms + median(&it.recover_ms).unwrap_or(0.0);
    let posthoc = profile(&r.events);
    if r.stream.take_partial().into_report().to_json() != posthoc.to_json() {
        problems.push("streamed report differs from post-hoc profile()".to_string());
    }
    it.downtime_frac = ratio(posthoc.downtime.downtime_seconds(), posthoc.makespan);
    let oversized = ManagerCounts::of(&r.events).oversized_configs;
    if oversized > 0 {
        problems.push(format!("{oversized} configs use more GPUs than offered"));
    }
    rep.op(problems);
    it.wal_bytes = bytes;
    it.events = r.events;
    it
}

/// Runs `spot_replay`.
pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) -> Option<SharedTracer> {
    let tracer = traced.then(Tracer::shared);
    let tr = tracer.as_ref();
    let model = ModelZoo::gpt2_2_5b();

    let (mut cal_ms, mut gen_ms) = (Vec::new(), Vec::new());
    let mut setup = || {
        let (calib, c) = timed(tr, "setup.calibrate", None, || {
            Calibration::profile(&model, &VarunaCluster::commodity_1gpu(SPOT_TARGET_GPUS))
        });
        let (traces, g) = timed(tr, "setup.inputs", None, || spot_traces(seed));
        std::hint::black_box(manager(&calib));
        cal_ms.push(c);
        gen_ms.push(g);
        (calib, traces)
    };
    let mut clock = SetupClock::default();
    let (calib, traces) = first_setup_round(&mut clock, &mut setup);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut its: Vec<Iteration> = Vec::new();
    loop {
        let i = its.len();
        let it = iteration(&calib, &traces[i % traces.len()], tr, i as u64, rep);
        its.push(it);
        if traced || Instant::now() >= deadline {
            break;
        }
        later_setup_round(&mut clock, &mut setup);
    }

    // Identity twin: slice 0 replayed again in the other tracing mode.
    let first = &its[0];
    let scratch = (!traced).then(Tracer::shared);
    let twin = replay(&calib, &traces[0], scratch.as_ref(), 0);
    let mut problems = Vec::new();
    if digest(&twin.events) != first.digest {
        problems.push("traced and untraced replays emitted different events".to_string());
    }
    if twin.wal.to_bytes() != first.wal_bytes {
        problems.push("traced and untraced replays logged different WAL bytes".to_string());
    }
    rep.op(problems);
    let overhead_ms = if traced {
        first.replay_ms - twin.ms
    } else {
        twin.ms - first.replay_ms
    };

    let op_ms: Vec<f64> = its.iter().flat_map(|i| i.plan_ms.iter().copied()).collect();
    let wall: Vec<f64> = its.iter().map(|i| i.wall_ms).collect();
    let recover: Vec<f64> = its
        .iter()
        .flat_map(|i| i.recover_ms.iter().copied())
        .collect();
    let sim_ex: Vec<f64> = its.iter().map(|i| i.sim_ex).collect();
    let downtime: Vec<f64> = its.iter().map(|i| i.downtime_frac).collect();
    rep.extra(
        "sim_downtime_frac",
        mean(&downtime),
        downtime.len(),
        "mean over replayed slices (simulated; must not get worse)",
    );

    if let Some(t) = tr {
        layers(
            rep,
            t,
            &calib,
            first,
            overhead_ms,
            median(&cal_ms).unwrap_or(0.0),
            median(&gen_ms).unwrap_or(0.0),
            traces[0].events.len(),
        );
        return tracer;
    }
    set_latencies(
        rep,
        "cold re-plan inside replay_walled",
        &op_ms,
        clock.samples(),
    );
    rep.set(
        "wall_s",
        median(&wall).unwrap_or(f64::NAN) / 1e3,
        wall.len(),
        format!("median host s per {SPOT_LEVELS}-level slice: replay + encode + decode + recover"),
    );
    rep.set(
        "recover_ms",
        median(&recover).unwrap_or(f64::NAN),
        recover.len(),
        "median decode + recover_on_bus, killed writing the last first-visit morph",
    );
    rep.set(
        "sim_ex_per_s",
        mean(&sim_ex),
        sim_ex.len(),
        "time-weighted over each slice, mean over slices",
    );
    None
}

#[allow(clippy::too_many_arguments)]
fn layers(
    rep: &mut Report,
    t: &SharedTracer,
    calib: &Calibration,
    it: &Iteration,
    overhead_ms: f64,
    cal_ms: f64,
    gen_ms: f64,
    trace_events: usize,
) {
    let levels = morph_levels(&it.events);
    let pr = retime::planner(t, calib, M_TOTAL, MICRO, &levels);
    let append_ms = retime::wal_append_ms(t, &it.records);
    let profile_ms = retime::profile_ms(t, &[&it.events]);
    let fold_ms = retime::stream_fold_ms(t, &[&it.events]);
    let (replay_self_ms, replay_ms, sink_ms) = {
        let tb = t.borrow();
        (
            tb.self_ms("manager.replay"),
            tb.total_ms("manager.replay"),
            tb.total_ms("obs.sink"),
        )
    };
    let counts = ManagerCounts::of(&it.events);

    rep.set("calibrate.ms", cal_ms, 1, "median of set-ups");
    rep.set(
        "trace.gen_ms",
        gen_ms,
        1,
        "spot slice pool generation, median of set-ups",
    );
    rep.set(
        "trace.events",
        trace_events as f64,
        1,
        "cluster events in the traced slice",
    );
    rep.set("partition.calls", pr.partition_calls as f64, 1, "re-timed");
    rep.set(
        "partition.ms",
        pr.partition_ms,
        pr.partition_calls as usize,
        "re-timed",
    );
    rep.set("analytic.calls", pr.analytic_calls as f64, 1, "re-timed");
    rep.set(
        "analytic.ms",
        pr.analytic_ms,
        pr.analytic_calls as usize,
        "re-timed",
    );
    rep.set(
        "analytic.us_per_call",
        ratio(pr.analytic_ms * 1e3, pr.analytic_calls as f64),
        pr.analytic_calls as usize,
        "re-timed",
    );
    rep.set(
        "planner.sweeps",
        pr.sweeps as f64,
        1,
        "distinct levels in Morph events",
    );
    rep.set("planner.configs", pr.configs as f64, 1, "re-timed");
    rep.set(
        "planner.ms",
        pr.planner_ms,
        pr.sweeps as usize,
        "re-timed best_config_with_fallback",
    );
    for name in [
        "emulator.calls",
        "emulator.ms",
        "emulator.ops",
        "emulator.ops_per_s",
    ] {
        rep.set(name, 0.0, 1, "analytic oracle: the emulator never runs");
    }
    if counts.simulated > 0 {
        rep.op(vec![format!(
            "the analytic replay emulated {} candidates",
            counts.simulated
        )]);
    }
    rep.set(
        "plansearch.candidates",
        counts.candidates as f64,
        1,
        "PlanSearch events",
    );
    rep.set(
        "plansearch.simulated",
        counts.simulated as f64,
        1,
        "PlanSearch events",
    );
    rep.set(
        "plansearch.memo_hits",
        counts.memo_hits as f64,
        1,
        "PlanSearch events",
    );
    rep.set(
        "plansearch.memo_hit_ratio",
        ratio(counts.memo_hits as f64, counts.candidates as f64),
        1,
        "",
    );
    rep.set(
        "plansearch.analytic_fallbacks",
        counts.analytic_fallbacks as f64,
        1,
        "",
    );
    rep.set(
        "manager.decisions",
        counts.decisions as f64,
        1,
        "Morph + MorphRetry events",
    );
    rep.set(
        "manager.morphs",
        counts.morphs as f64,
        1,
        "reconfigurations",
    );
    rep.set(
        "manager.degraded_entries",
        counts.degraded_entries as f64,
        1,
        "",
    );
    rep.set(
        "manager.plan_cache_hit_ratio",
        ratio(counts.seen_level_decisions as f64, counts.decisions as f64),
        counts.decisions as usize,
        "decisions at already-seen levels / decisions",
    );
    rep.set(
        "manager.self_ms",
        (replay_self_ms - pr.planner_ms - append_ms).max(0.0),
        1,
        "replay self time (minus sink spans) minus re-timed planner and WAL appends",
    );
    rep.set("wal.appends", it.records.len() as f64, 1, "");
    rep.set(
        "wal.append_ms",
        append_ms,
        it.records.len(),
        "re-timed appends of the run's records",
    );
    rep.set("wal.bytes", it.bytes as f64, 1, "");
    rep.set("wal.encode_ms", it.encode_ms, 1, "");
    rep.set("wal.decode_ms", it.decode_ms, 1, "");
    rep.set("wal.replayed_records", it.replayed as f64, 1, "");
    rep.set("wal.torn_detected", f64::from(u8::from(it.torn)), 1, "");
    rep.set("obs.events", it.events.len() as f64, 1, "");
    rep.set(
        "obs.sink_ms",
        sink_ms,
        it.events.len(),
        "timed EventSink wrappers (VecSink + StreamSink)",
    );
    rep.set("obs.profile_ms", profile_ms, 1, "re-timed profile()");
    rep.set("obs.stream_fold_ms", fold_ms, 1, "re-timed StreamSink fold");
    for name in [
        "fleet.allocations",
        "fleet.preemptions",
        "fleet.fallbacks",
        "fleet.self_ms",
    ] {
        rep.set(name, 0.0, 1, "no fleet in this workload");
    }
    rep.set(
        "iteration.ms",
        it.wall_ms,
        1,
        "replay + encode + decode + median recover",
    );
    rep.set(
        "trace.overhead_ms",
        overhead_ms,
        1,
        "traced minus untraced replay of the same slice",
    );
    rep.set("trace.spans", t.borrow().spans().len() as f64, 1, "");
    let share = ratio(pr.planner_ms + append_ms, replay_ms);
    rep.set(
        "retime.share_of_parent",
        share,
        1,
        "re-timed planner + WAL appends over the replay span (must be <= 1)",
    );
    if share > 1.0 {
        rep.note(format!(
            "note: re-timed layers sum to {share:.3} of their parent replay span; planning is nearly all of it"
        ));
    }
    let f = ratio(pr.planner_ms, it.wall_ms);
    rep.note(format!(
        "split: planner.ms is {:.1}% of the iteration's host time (designed: at least ~75%), emulator.calls = 0 -> {}",
        100.0 * f,
        if f >= 0.75 { "holds" } else { "DOES NOT HOLD" }
    ));
    rep.note(format!(
        "analytic: {:.1} us per estimate_minibatch_time call",
        ratio(pr.analytic_ms * 1e3, pr.analytic_calls as f64)
    ));
}
