//! `fleet_market`: many GPT-2 355M jobs on a multi-week shared spot
//! market with hosts at 45% of demand, under the `SpotOnly` policy so
//! every preemption reaches a job's manager. `run_fleet_walled` runs
//! first, then `recover_fleet` from a log torn inside its last frame.
//! The work is in the arbiter, the lease book, per-job event handling,
//! the 1+N buses with their stream checks, and the fleet WAL; planning
//! is a few levels per job, a minority over this horizon.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use varuna::{Calibration, Manager, ManagerWal, VarunaCluster};
use varuna_cluster::trace::ClusterTrace;
use varuna_fleet::{
    recover_fleet, run_fleet_walled, FleetConfig, FleetOutcome, FleetRun, FleetWal, FleetWalRecord,
    ProvisionPolicy,
};
use varuna_obs::{Event, EventBus, EventKind, VecSink};

use crate::common::{
    first_setup_round, later_setup_round, set_latencies, tear_last_frame, SetupClock,
};
use crate::events::{morph_levels, ratio, ManagerCounts};
use crate::inputs::{fleet_jobs, fleet_market, FLEET_HOURS, FLEET_JOBS};
use crate::report::Report;
use crate::retime;
use crate::spans::{timed, SharedTracer, Tracer};
use crate::stats::median;
use crate::wrap::{TimedSink, TimedWal};

/// One fleet run and its torn-tail recovery.
struct Iteration {
    /// The kept run's outcome.
    outcome: Option<FleetOutcome>,
    /// The kept run with its event streams, in a traced run only.
    run: Option<FleetRun>,
    records: Vec<FleetWalRecord>,
    wal_bytes: Vec<u8>,
    run_ms: f64,
    wall_ms: f64,
    recover_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    replayed: usize,
    torn: bool,
}

fn config() -> FleetConfig {
    FleetConfig::new(fleet_jobs()).with_policy(ProvisionPolicy::SpotOnly)
}

fn problems_of(run: &FleetRun, what: &str) -> Vec<String> {
    let mut p = Vec::new();
    let o = &run.outcome;
    if o.capacity_violations > 0 || o.fairness_violations > 0 {
        p.push(format!(
            "{what}: {} capacity and {} fairness violations",
            o.capacity_violations, o.fairness_violations
        ));
    }
    if !run.stream.all_clean() {
        p.push(format!(
            "{what}: a streamed report differs from post-hoc profile()"
        ));
    }
    let oversized: u64 = run
        .job_events
        .iter()
        .map(|ev| ManagerCounts::of(ev).oversized_configs)
        .sum();
    if oversized > 0 {
        p.push(format!(
            "{what}: {oversized} configs use more GPUs than offered"
        ));
    }
    p
}

/// One iteration. Only a kept iteration (the first) holds on to its
/// outcome and log bytes, and its run and log records only when traced:
/// a two-week fleet's event streams are tens of MB, and holding them
/// through later iterations would make `peak_rss_mb` measure the
/// benchmark's own bookkeeping.
fn iteration(
    cfg: &FleetConfig,
    market: &ClusterTrace,
    tracer: Option<&SharedTracer>,
    id: u64,
    keep: bool,
    rep: &mut Report,
) -> Iteration {
    let mut wal = FleetWal::new();
    let (run, run_ms) = timed(tracer, "fleet.run", Some(id), || {
        run_fleet_walled(cfg, market, &mut wal)
    });
    let (bytes, encode_ms) = timed(tracer, "wal.encode", None, || wal.to_bytes());
    let records = if keep && tracer.is_some() {
        wal.records().to_vec()
    } else {
        Vec::new()
    };
    drop(wal);
    let torn = tear_last_frame(&bytes).unwrap_or_default();
    let (loaded, decode_ms) = timed(tracer, "wal.decode", None, || FleetWal::from_bytes(&torn));
    drop(torn);
    let mut it = Iteration {
        outcome: None,
        run: None,
        records,
        wal_bytes: Vec::new(),
        run_ms,
        wall_ms: 0.0,
        recover_ms: 0.0,
        encode_ms,
        decode_ms,
        replayed: 0,
        torn: false,
    };
    let mut problems = Vec::new();
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            rep.op(vec![format!("fleet run failed: {e}")]);
            return it;
        }
    };
    problems.extend(problems_of(&run, "run"));
    match loaded {
        Err(e) => problems.push(format!("torn fleet log does not decode: {e}")),
        Ok(mut w2) => {
            let (rec, rec_ms) = timed(tracer, "fleet.recover", None, || {
                recover_fleet(cfg, market, &mut w2)
            });
            it.recover_ms = decode_ms + rec_ms;
            match rec {
                Err(e) => problems.push(format!("fleet recovery failed: {e}")),
                Ok((run2, report)) => {
                    problems.extend(problems_of(&run2, "recovery"));
                    it.replayed = report.replayed_records;
                    it.torn = report.torn.is_some();
                    if !it.torn {
                        problems.push("torn tail not detected".to_string());
                    }
                    if run2.outcome.digest != run.outcome.digest {
                        problems
                            .push("recovered fleet differs from the uninterrupted one".to_string());
                    }
                    if w2.to_bytes() != bytes {
                        problems.push(
                            "recovered fleet log differs from the uninterrupted log".to_string(),
                        );
                    }
                }
            }
        }
    }
    rep.op(problems);
    it.wall_ms = run_ms + encode_ms + it.recover_ms;
    if keep {
        it.wal_bytes = bytes;
        it.outcome = Some(run.outcome.clone());
        if tracer.is_some() {
            it.run = Some(run);
        }
    }
    it
}

/// Runs `fleet_market`.
pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) -> Option<SharedTracer> {
    let tracer = traced.then(Tracer::shared);
    let tr = tracer.as_ref();

    let (mut cal_ms, mut gen_ms) = (Vec::new(), Vec::new());
    let mut setup = || {
        let cfg = config();
        // `run_fleet_walled` calibrates every job itself; the same calls
        // here measure the calibration layer.
        let (calibs, c) = timed(tr, "setup.calibrate", None, || {
            cfg.jobs
                .iter()
                .map(|j| {
                    Calibration::profile(&j.model, &VarunaCluster::commodity_1gpu(j.demand_gpus))
                })
                .collect::<Vec<_>>()
        });
        let (market, g) = timed(tr, "setup.inputs", None, || fleet_market(seed));
        cal_ms.push(c);
        gen_ms.push(g);
        (cfg, calibs, market)
    };
    let mut clock = SetupClock::default();
    let (cfg, calibs, market) = first_setup_round(&mut clock, &mut setup);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut its: Vec<Iteration> = Vec::new();
    loop {
        let it = iteration(&cfg, &market, tr, its.len() as u64, its.is_empty(), rep);
        its.push(it);
        if traced || Instant::now() >= deadline {
            break;
        }
        later_setup_round(&mut clock, &mut setup);
    }

    // Identity twin: the same fleet again in the other tracing mode.
    let first = &its[0];
    let scratch = (!traced).then(Tracer::shared);
    let mut twin_wal = FleetWal::new();
    let (twin, twin_ms) = timed(scratch.as_ref(), "fleet.run", Some(0), || {
        run_fleet_walled(&cfg, &market, &mut twin_wal)
    });
    let mut problems = Vec::new();
    match (&twin, &first.outcome) {
        (Ok(t), Some(o)) if t.outcome.digest == o.digest => {}
        _ => problems.push("traced and untraced fleet runs emitted different events".to_string()),
    }
    drop(twin);
    if twin_wal.to_bytes() != first.wal_bytes {
        problems.push("traced and untraced fleet runs logged different WAL bytes".to_string());
    }
    drop(twin_wal);
    rep.op(problems);
    let overhead_ms = if traced {
        first.run_ms - twin_ms
    } else {
        twin_ms - first.run_ms
    };

    if let Some(o) = &first.outcome {
        rep.extra(
            "sim_dollars_per_ktoken",
            o.dollars_per_ktoken,
            1,
            "simulated fleet cost efficiency (must not get worse)",
        );
        rep.extra(
            "sim_goodput_tokens_per_h",
            o.goodput_tokens_per_hour,
            1,
            "simulated fleet goodput (must not get worse)",
        );
    }

    if let Some(t) = tr {
        if first.run.is_some() {
            layers(
                rep,
                t,
                &calibs[0],
                first,
                overhead_ms,
                median(&cal_ms).unwrap_or(0.0),
                median(&gen_ms).unwrap_or(0.0),
                market.events.len(),
            );
        }
        return tracer;
    }
    let op_ms: Vec<f64> = its.iter().map(|i| i.run_ms).collect();
    let wall: Vec<f64> = its.iter().map(|i| i.wall_ms).collect();
    let recover: Vec<f64> = its.iter().map(|i| i.recover_ms).collect();
    set_latencies(
        rep,
        &format!("{FLEET_JOBS}-job {FLEET_HOURS} h fleet run"),
        &op_ms,
        clock.samples(),
    );
    rep.set(
        "wall_s",
        median(&wall).unwrap_or(f64::NAN) / 1e3,
        wall.len(),
        "median host s per iteration: run + encode + decode + recover",
    );
    rep.set(
        "recover_ms",
        median(&recover).unwrap_or(f64::NAN),
        recover.len(),
        "median decode + recover_fleet of a log torn in its last frame",
    );
    rep.set(
        "sim_ex_per_s",
        first
            .outcome
            .as_ref()
            .map_or(f64::NAN, |o| ratio(o.examples, o.duration_hours * 3600.0)),
        1,
        "fleet examples per simulated second (every iteration replays the same market)",
    );
    None
}

/// Each job's capacity over time, as the arbiter announced it.
fn allocations(fleet_events: &[Event]) -> BTreeMap<u64, Vec<(f64, usize)>> {
    let mut out: BTreeMap<u64, Vec<(f64, usize)>> = BTreeMap::new();
    for e in fleet_events {
        if let EventKind::FleetAllocation {
            job,
            spot_gpus,
            on_demand_gpus,
            ..
        } = e.kind
        {
            out.entry(job)
                .or_default()
                .push((e.t_sim / 3600.0, spot_gpus + on_demand_gpus));
        }
    }
    out
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
    market_events: usize,
) {
    let run = it.run.as_ref().expect("a completed run");
    let jobs = fleet_jobs();

    // Planning: every job's distinct levels, re-planned cold.
    let mut pr_total = retime::PlannerRetime::default();
    for ev in &run.job_events {
        let pr = retime::planner(t, calib, jobs[0].m_total, jobs[0].micro, &morph_levels(ev));
        pr_total.sweeps += pr.sweeps;
        pr_total.configs += pr.configs;
        pr_total.planner_ms += pr.planner_ms;
        pr_total.partition_calls += pr.partition_calls;
        pr_total.partition_ms += pr.partition_ms;
        pr_total.analytic_calls += pr.analytic_calls;
        pr_total.analytic_ms += pr.analytic_ms;
    }

    // Managers: each job's allocation sequence re-driven through
    // `on_external_capacity_walled` on a fresh manager, with the timing
    // wrappers on its bus and log.
    for seq in allocations(&run.fleet_events).values() {
        let mut mgr = Manager::new(calib, jobs[0].m_total, jobs[0].micro).with_fallback();
        let mut bus = EventBus::with_sink(Box::new(TimedSink::new(VecSink::new(), t.clone())));
        let mut wal = TimedWal::new(ManagerWal::new(), t.clone());
        for &(t_hours, gpus) in seq {
            timed(Some(t), "retime.manager", None, || {
                mgr.on_external_capacity_walled(t_hours, gpus, 0, 0, &mut bus, &mut wal)
            });
        }
    }
    let manager_self_ms = (t.borrow().self_ms("retime.manager") - pr_total.planner_ms).max(0.0);

    let mut streams: Vec<&[Event]> = vec![&run.fleet_events];
    streams.extend(run.job_events.iter().map(Vec::as_slice));
    let sink_ms = retime::fleet_sink_ms(t, &streams);
    let profile_ms = retime::profile_ms(t, &streams);
    let fold_ms = retime::stream_fold_ms(t, &streams);
    let append_ms = retime::wal_append_ms(t, &it.records);
    let obs_events: usize = streams.iter().map(|s| s.len()).sum();

    let mut counts = ManagerCounts::default();
    for ev in &run.job_events {
        counts.add(&ManagerCounts::of(ev));
    }
    let count = |pred: fn(&EventKind) -> bool| {
        run.fleet_events.iter().filter(|e| pred(&e.kind)).count() as f64
    };
    let inside = pr_total.planner_ms + manager_self_ms + append_ms + sink_ms + profile_ms;
    let share = ratio(inside, it.run_ms);

    rep.set(
        "calibrate.ms",
        cal_ms,
        1,
        "all jobs' calibrations, median of set-ups",
    );
    rep.set(
        "trace.gen_ms",
        gen_ms,
        1,
        "market generation, median of set-ups",
    );
    rep.set(
        "trace.events",
        market_events as f64,
        1,
        "cluster events in the market",
    );
    rep.set(
        "partition.calls",
        pr_total.partition_calls as f64,
        1,
        "re-timed",
    );
    rep.set(
        "partition.ms",
        pr_total.partition_ms,
        pr_total.partition_calls as usize,
        "re-timed",
    );
    rep.set(
        "analytic.calls",
        pr_total.analytic_calls as f64,
        1,
        "re-timed",
    );
    rep.set(
        "analytic.ms",
        pr_total.analytic_ms,
        pr_total.analytic_calls as usize,
        "re-timed",
    );
    rep.set(
        "analytic.us_per_call",
        ratio(pr_total.analytic_ms * 1e3, pr_total.analytic_calls as f64),
        pr_total.analytic_calls as usize,
        "re-timed",
    );
    rep.set(
        "planner.sweeps",
        pr_total.sweeps as f64,
        1,
        "distinct levels per job, summed",
    );
    rep.set("planner.configs", pr_total.configs as f64, 1, "re-timed");
    rep.set(
        "planner.ms",
        pr_total.planner_ms,
        pr_total.sweeps as usize,
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
            "the analytic fleet emulated {} candidates",
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
    rep.set("manager.decisions", counts.decisions as f64, 1, "all jobs");
    rep.set(
        "manager.morphs",
        counts.morphs as f64,
        1,
        "all jobs, reconfigurations",
    );
    rep.set(
        "manager.degraded_entries",
        counts.degraded_entries as f64,
        1,
        "all jobs",
    );
    rep.set(
        "manager.plan_cache_hit_ratio",
        ratio(counts.seen_level_decisions as f64, counts.decisions as f64),
        counts.decisions as usize,
        "decisions at already-seen levels / decisions",
    );
    rep.set(
        "manager.self_ms",
        manager_self_ms,
        FLEET_JOBS,
        "re-driven allocation sequences, self time minus re-timed planner",
    );
    rep.set("wal.appends", it.records.len() as f64, 1, "");
    rep.set(
        "wal.append_ms",
        append_ms,
        it.records.len(),
        "re-timed appends of the run's records",
    );
    rep.set("wal.bytes", it.wal_bytes.len() as f64, 1, "");
    rep.set("wal.encode_ms", it.encode_ms, 1, "");
    rep.set("wal.decode_ms", it.decode_ms, 1, "");
    rep.set("wal.replayed_records", it.replayed as f64, 1, "");
    rep.set("wal.torn_detected", f64::from(u8::from(it.torn)), 1, "");
    rep.set(
        "obs.events",
        obs_events as f64,
        1,
        "fleet bus + every job bus",
    );
    rep.set(
        "obs.sink_ms",
        sink_ms,
        obs_events,
        "re-timed VecSink + StreamSink delivery",
    );
    rep.set(
        "obs.profile_ms",
        profile_ms,
        streams.len(),
        "re-timed profile() per bus",
    );
    rep.set(
        "obs.stream_fold_ms",
        fold_ms,
        streams.len(),
        "re-timed StreamSink fold per bus",
    );
    rep.set(
        "fleet.allocations",
        count(|k| matches!(k, EventKind::FleetAllocation { .. })),
        1,
        "",
    );
    rep.set(
        "fleet.preemptions",
        count(|k| matches!(k, EventKind::JobPreempted { .. })),
        1,
        "",
    );
    rep.set(
        "fleet.fallbacks",
        count(|k| matches!(k, EventKind::FallbackProvisioned { .. })),
        1,
        "",
    );
    rep.set(
        "fleet.self_ms",
        (it.run_ms - inside).max(0.0),
        1,
        "run span minus re-timed planner, manager, WAL appends, sinks, profile",
    );
    rep.set(
        "iteration.ms",
        it.wall_ms,
        1,
        "run + encode + decode + recover",
    );
    rep.set(
        "trace.overhead_ms",
        overhead_ms,
        1,
        "traced minus untraced run of the same fleet",
    );
    rep.set("trace.spans", t.borrow().spans().len() as f64, 1, "");
    rep.set(
        "retime.share_of_parent",
        share,
        1,
        "re-timed layers over the fleet run span (must be <= 1)",
    );
    if share > 1.0 {
        rep.note(format!(
            "note: re-timed layers sum to {share:.3} of their parent fleet run span"
        ));
    }
    let f = ratio(pr_total.planner_ms, it.wall_ms);
    rep.note(format!(
        "split: planner.ms is {:.1}% of the iteration's host time (designed: under 25%), emulator.calls = 0 -> {}",
        100.0 * f,
        if f < 0.25 { "holds" } else { "DOES NOT HOLD" }
    ));
}
