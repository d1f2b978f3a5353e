//! `replan_burst`: one GPT-2 2.5B manager with the simulator-in-the-loop
//! oracle, driven one decision at a time through
//! `Manager::on_external_capacity_walled` over seeded preemption-burst
//! walks that visit every capacity level cold and then revisit it. Cold
//! decisions (a level this manager has not planned for) are bound by the
//! emulator; warm ones (a revisit) by the analytic sweep plus the memo
//! table.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use varuna::morph::MorphDecision;
use varuna::plansearch::{PlanBudget, SimSearch};
use varuna::{Calibration, Config, Manager, ManagerWal, Oracle, VarunaCluster};
use varuna_models::ModelZoo;
use varuna_obs::{Event, EventBus, VecSink};

use crate::common::{
    digest, first_setup_round, later_setup_round, set_latencies, tear_last_frame, SetupClock,
};
use crate::events::{ratio, time_weighted_ex_per_s, ManagerCounts};
use crate::inputs::{burst_walk, replan_levels, FULL_LEVEL};
use crate::report::Report;
use crate::retime;
use crate::spans::{timed, SharedTracer, Tracer};
use crate::stats::{median, tail};
use crate::wrap::{TimedSink, TimedWal};

/// Mini-batch size of the re-planned job. The paper's 8192 makes one
/// cold decision cost seconds; 1024 keeps a whole walk to about two
/// seconds while keeping the same candidate set.
pub const M_TOTAL: usize = 1024;
/// Micro-batch size.
pub const MICRO: usize = 4;
/// `SimSearch` worker threads, set explicitly so runs on hosts of
/// different widths do the same work per thread.
pub const SIM_THREADS: usize = 1;
/// Simulated time between decisions of a walk, hours.
const STEP_HOURS: f64 = 0.25;
/// Mini-batches past the durable checkpoint at every decision.
const LOST_STEPS: u64 = 3;
/// Decisions the traced/untraced identity twin replays.
const TWIN_DECISIONS: usize = 3;

/// What the manager is told at one decision.
#[derive(Debug, Clone, Copy)]
struct Input {
    t_hours: f64,
    gpus: usize,
    step: u64,
    durable: u64,
}

impl Input {
    fn at(k: usize, gpus: usize) -> Self {
        let step = 10 * (k as u64 + 1);
        Input {
            t_hours: k as f64 * STEP_HOURS,
            gpus,
            step,
            durable: step - LOST_STEPS,
        }
    }
}

fn manager(calib: &Calibration) -> Manager<'_> {
    Manager::new(calib, M_TOTAL, MICRO)
        .with_fallback()
        .with_oracle(Oracle::Sim(
            SimSearch::new(PlanBudget::unlimited()).threads(SIM_THREADS),
        ))
}

/// One manager with its bus, event record, and write-ahead log.
struct Session<'a> {
    mgr: Manager<'a>,
    bus: EventBus,
    sink: VecSink,
    wal: ManagerWal,
    tracer: Option<SharedTracer>,
    inputs: Vec<Input>,
    /// `(events, wal records)` after each decision.
    marks: Vec<(usize, usize)>,
    /// Host ms of each decision.
    ms: Vec<f64>,
}

impl<'a> Session<'a> {
    fn new(calib: &'a Calibration, tracer: Option<SharedTracer>) -> Self {
        let sink = VecSink::new();
        let mut s = Session {
            mgr: manager(calib),
            bus: EventBus::new(),
            sink,
            wal: ManagerWal::new(),
            tracer: None,
            inputs: Vec::new(),
            marks: Vec::new(),
            ms: Vec::new(),
        };
        s.set_tracer(tracer);
        s
    }

    /// Rebuilds the bus around the same event record, with or without
    /// the timing wrapper.
    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.bus = match &tracer {
            Some(t) => EventBus::with_sink(Box::new(TimedSink::new(self.sink.clone(), t.clone()))),
            None => EventBus::with_sink(Box::new(self.sink.clone())),
        };
        self.tracer = tracer;
    }

    fn decide(&mut self, gpus: usize, id: u64) -> (Option<MorphDecision>, f64) {
        let inp = Input::at(self.inputs.len(), gpus);
        let tracer = self.tracer.clone();
        let (mgr, bus, wal) = (&mut self.mgr, &mut self.bus, &mut self.wal);
        let (out, ms) = timed(
            tracer.as_ref(),
            "manager.decide",
            Some(id),
            || match &tracer {
                Some(t) => {
                    let mut timed_wal = TimedWal::new(std::mem::take(wal), t.clone());
                    let r = mgr.on_external_capacity_walled(
                        inp.t_hours,
                        inp.gpus,
                        inp.step,
                        inp.durable,
                        bus,
                        &mut timed_wal,
                    );
                    *wal = timed_wal.inner;
                    r
                }
                None => mgr.on_external_capacity_walled(
                    inp.t_hours,
                    inp.gpus,
                    inp.step,
                    inp.durable,
                    bus,
                    wal,
                ),
            },
        );
        self.inputs.push(inp);
        self.marks.push((self.sink.len(), self.wal.len()));
        self.ms.push(ms);
        (out, ms)
    }

    /// Events of decisions `lo..hi`.
    fn slice<'e>(&self, events: &'e [Event], lo: usize, hi: usize) -> &'e [Event] {
        let from = if lo == 0 { 0 } else { self.marks[lo - 1].0 };
        &events[from..self.marks[hi - 1].0]
    }
}

/// Problems with one committed decision.
fn check_decision(
    d: &Option<MorphDecision>,
    gpus: usize,
    picks: &mut BTreeMap<usize, (usize, usize)>,
) -> Vec<String> {
    let Some(d) = d else {
        return vec![format!("no plan at {gpus} GPUs")];
    };
    let mut problems = Vec::new();
    if d.config.gpus_used() > gpus {
        problems.push(format!(
            "config {}x{} uses {} of {gpus} offered GPUs",
            d.config.p,
            d.config.d,
            d.config.gpus_used()
        ));
    }
    let pd = (d.config.p, d.config.d);
    let first = *picks.entry(gpus).or_insert(pd);
    if first != pd {
        problems.push(format!(
            "level {gpus}: picked {pd:?}, earlier visit picked {first:?}"
        ));
    }
    problems
}

/// What the identity twin is compared against: the first
/// `TWIN_DECISIONS` decisions of walk 0 as its session ran them.
struct TwinReference {
    digest: u64,
    wal: Vec<u8>,
    traced: bool,
    ms: f64,
}

impl TwinReference {
    fn of(s: &Session<'_>, events: &[Event]) -> Self {
        let n = TWIN_DECISIONS.min(s.inputs.len());
        let (n_ev, n_rec) = s.marks[n - 1];
        TwinReference {
            digest: digest(&events[..n_ev]),
            wal: s.wal.truncated_bytes(n_rec),
            traced: s.tracer.is_some(),
            ms: s.ms[..n].iter().sum(),
        }
    }
}

/// The traced/untraced identity twin: the first decisions of `walk` on
/// a fresh manager in the other tracing mode, compared byte for byte
/// with what the reference session emitted and logged. Returns the
/// tracing overhead on those decisions, traced minus untraced ms.
fn identity_twin(
    calib: &Calibration,
    walk: &[usize],
    reference: &TwinReference,
    rep: &mut Report,
) -> f64 {
    let mut twin = Session::new(calib, (!reference.traced).then(Tracer::shared));
    for (k, &g) in walk.iter().take(TWIN_DECISIONS).enumerate() {
        twin.decide(g, k as u64);
    }
    let mut problems = Vec::new();
    if digest(&twin.sink.snapshot()) != reference.digest {
        problems.push("traced and untraced decisions emitted different events".to_string());
    }
    if twin.wal.to_bytes() != reference.wal {
        problems.push("traced and untraced decisions logged different WAL bytes".to_string());
    }
    rep.op(problems);
    let twin_ms: f64 = twin.ms.iter().sum();
    if reference.traced {
        reference.ms - twin_ms
    } else {
        twin_ms - reference.ms
    }
}

/// WAL figures from one torn-tail recovery.
#[derive(Default)]
struct Recovery {
    ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    bytes: usize,
    replayed: usize,
    torn: bool,
}

/// Tears `s`'s log inside its last frame, decodes it, and re-drives
/// every decision on a fresh manager from it. Checks the recovered
/// events and log equal the uninterrupted ones.
fn recover(
    calib: &Calibration,
    s: &Session<'_>,
    tracer: Option<&SharedTracer>,
    rep: &mut Report,
) -> Recovery {
    let mut out = Recovery::default();
    let (bytes, encode_ms) = timed(tracer, "wal.encode", None, || s.wal.to_bytes());
    out.encode_ms = encode_ms;
    out.bytes = bytes.len();
    let Some(torn) = tear_last_frame(&bytes) else {
        rep.op(vec!["empty decision log".to_string()]);
        return out;
    };
    let (loaded, decode_ms) = timed(tracer, "wal.decode", None, || ManagerWal::from_bytes(&torn));
    let mut wal = match loaded {
        Ok(w) => w,
        Err(e) => {
            rep.op(vec![format!("torn decision log does not decode: {e}")]);
            return out;
        }
    };
    out.decode_ms = decode_ms;
    out.replayed = wal.remaining();
    out.torn = wal.torn().is_some();
    let mut mgr = manager(calib);
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    let ((), replay_ms) = timed(tracer, "manager.recover", None, || {
        for inp in &s.inputs {
            mgr.on_external_capacity_walled(
                inp.t_hours,
                inp.gpus,
                inp.step,
                inp.durable,
                &mut bus,
                &mut wal,
            );
        }
    });
    out.ms = decode_ms + replay_ms;
    let mut problems = Vec::new();
    if !out.torn {
        problems.push("torn tail not detected".to_string());
    }
    if digest(&sink.take()) != digest(&s.sink.snapshot()) {
        problems.push("recovered decisions differ from the uninterrupted ones".to_string());
    }
    if wal.to_bytes() != bytes {
        problems.push("recovered log differs from the uninterrupted log".to_string());
    }
    rep.op(problems);
    out
}

/// Runs `replan_burst`.
pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) -> Option<SharedTracer> {
    let tracer = traced.then(Tracer::shared);
    let tr = tracer.as_ref();

    // Set-up: model, calibration, the first walk, and a manager.
    let (mut cal_ms, mut gen_ms) = (Vec::new(), Vec::new());
    let mut setup = || {
        let model = ModelZoo::gpt2_2_5b();
        let (calib, c) = timed(tr, "setup.calibrate", None, || {
            Calibration::profile(&model, &VarunaCluster::commodity_1gpu(FULL_LEVEL))
        });
        let (walk, g) = timed(tr, "setup.inputs", None, || burst_walk(seed, 0));
        std::hint::black_box(manager(&calib));
        cal_ms.push(c);
        gen_ms.push(g);
        (calib, walk)
    };
    let mut clock = SetupClock::default();
    let (calib, walk0) = first_setup_round(&mut clock, &mut setup);
    let levels = replan_levels().len();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut picks = BTreeMap::new();
    let (mut cold_ms, mut warm_ms, mut walk_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut recover_ms = Vec::new();
    let mut first: Option<(Session<'_>, Vec<Event>, Recovery)> = None;

    // Closed loop over walks, each on a fresh manager; walk 0 always
    // completes (and is the traced iteration of a traced run).
    for w in 0u64.. {
        let walk = if w == 0 {
            walk0.clone()
        } else {
            burst_walk(seed, w)
        };
        let mut s = Session::new(&calib, (traced && w == 0).then(|| tracer.clone()).flatten());
        for (k, &g) in walk.iter().enumerate() {
            if w > 0 && Instant::now() >= deadline {
                break;
            }
            let (d, _) = s.decide(g, w * 1000 + k as u64);
            rep.op(check_decision(&d, g, &mut picks));
        }
        if s.inputs.len() == walk.len() {
            // Only complete walks give samples, so every level is in
            // them equally often: levels differ in cost, and the
            // deadline cuts the last walk after a seed-dependent level.
            cold_ms.extend_from_slice(&s.ms[..levels]);
            warm_ms.extend_from_slice(&s.ms[levels..]);
            walk_ms.push(s.ms.iter().sum());
            // Revisits must be pure memo replays.
            let ev = s.sink.snapshot();
            for k in levels..walk.len() {
                let c = ManagerCounts::of(s.slice(&ev, k, k + 1));
                if c.simulated > 0 {
                    rep.op(vec![format!(
                        "warm decision at {} GPUs emulated {} candidates",
                        s.inputs[k].gpus, c.simulated
                    )]);
                }
            }
            // Every complete walk is also recovered from its torn log.
            let recovery = recover(&calib, &s, if w == 0 { tr } else { None }, rep);
            recover_ms.push(recovery.ms);
            if w == 0 {
                first = Some((s, ev, recovery));
            }
        }
        if traced || Instant::now() >= deadline {
            break;
        }
        later_setup_round(&mut clock, &mut setup);
    }
    let (s0, ev0, recovery) = first.expect("walk 0 completes");
    let sim_ex = time_weighted_ex_per_s(&ev0, walk0.len() as f64 * STEP_HOURS * 3600.0);
    let overhead_ms = identity_twin(&calib, &walk0, &TwinReference::of(&s0, &ev0), rep);

    if let Some(t) = tr {
        layers(
            rep,
            t,
            &calib,
            &s0,
            &ev0,
            levels,
            &recovery,
            overhead_ms,
            median(&cal_ms).unwrap_or(0.0),
            median(&gen_ms).unwrap_or(0.0),
        );
        return tracer;
    }
    set_latencies(rep, "cold decision", &cold_ms, clock.samples());
    if let (Some(p50), Some(t)) = (median(&warm_ms), tail(&warm_ms)) {
        rep.extra(
            "replan_warm_ms.p50",
            p50,
            warm_ms.len(),
            "warm decisions (revisits)",
        );
        rep.extra(
            "replan_warm_ms.tail",
            t.value,
            t.n,
            format!("p{:.1} of warm decisions", t.percentile),
        );
    }
    rep.set(
        "wall_s",
        median(&walk_ms).unwrap_or(f64::NAN) / 1e3,
        walk_ms.len(),
        format!("median host s of a complete {}-decision walk", walk0.len()),
    );
    rep.set(
        "recover_ms",
        median(&recover_ms).unwrap_or(f64::NAN),
        recover_ms.len(),
        format!(
            "median decode + re-drive of a {}-decision walk from its log torn in its last frame",
            walk0.len()
        ),
    );
    rep.set(
        "sim_ex_per_s",
        sim_ex,
        walk0.len(),
        "time-weighted over one walk",
    );
    None
}

/// The per-layer table of a traced run: the traced iteration is walk 0,
/// its first `levels_n` decisions cold and the rest warm.
#[allow(clippy::too_many_arguments)]
fn layers(
    rep: &mut Report,
    t: &SharedTracer,
    calib: &Calibration,
    s: &Session<'_>,
    events: &[Event],
    levels_n: usize,
    rec: &Recovery,
    overhead_ms: f64,
    cal_ms: f64,
    gen_ms: f64,
) {
    let levels: Vec<usize> = s.inputs.iter().map(|i| i.gpus).collect();
    let iteration_ms: f64 = s.ms.iter().sum();
    let cold_ms: f64 = s.ms[..levels_n].iter().sum();
    let warm_ms = iteration_ms - cold_ms;
    let (decide_self_ms, decide_ms, sink_ms, append_ms, appends) = {
        let tb = t.borrow();
        (
            tb.self_ms("manager.decide"),
            tb.total_ms("manager.decide"),
            tb.total_ms("obs.sink"),
            tb.total_ms("wal.append"),
            tb.count("wal.append"),
        )
    };

    let pr = retime::planner(t, calib, M_TOTAL, MICRO, &levels);
    // The candidates the search emulated: each decision's sweep minus
    // what the memo already held, so only the cold visits emulate.
    let mut to_emulate: Vec<Config> = Vec::new();
    {
        let mut memo: BTreeSet<(usize, usize, usize, usize, bool)> = BTreeSet::new();
        let mut mismatched = 0;
        for (k, cands) in pr.candidates.iter().enumerate() {
            let before = to_emulate.len();
            for c in cands {
                if memo.insert((c.p, c.d, c.m, c.n_micro, c.offload)) {
                    to_emulate.push(c.clone());
                }
            }
            let searched = ManagerCounts::of(s.slice(events, k, k + 1)).simulated;
            if searched != (to_emulate.len() - before) as u64 {
                mismatched += 1;
            }
        }
        if mismatched > 0 {
            rep.note(format!(
                "note: the re-timed emulator set differs from the search's own count at {mismatched} decisions"
            ));
        }
    }
    let em = retime::emulator(t, calib, &to_emulate);
    if em.errors > 0 {
        rep.op(vec![format!("{} candidates failed to emulate", em.errors)]);
    }
    let profile_ms = retime::profile_ms(t, &[events]);
    let fold_ms = retime::stream_fold_ms(t, &[events]);

    let counts = ManagerCounts::of(events);
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let revisits = levels.iter().filter(|&&g| !seen.insert(g)).count();
    let retimed_inside = pr.planner_ms + em.ms;

    rep.set("calibrate.ms", cal_ms, 1, "median of set-ups");
    rep.set(
        "trace.gen_ms",
        gen_ms,
        1,
        "burst walk generation, median of set-ups",
    );
    rep.set(
        "trace.events",
        levels.len() as f64,
        1,
        "decisions in the traced walk",
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
    rep.set("planner.sweeps", pr.sweeps as f64, 1, "re-timed");
    rep.set("planner.configs", pr.configs as f64, 1, "re-timed");
    rep.set(
        "planner.ms",
        pr.planner_ms,
        pr.sweeps as usize,
        "re-timed best_config_with_fallback",
    );
    rep.set(
        "emulator.calls",
        em.calls as f64,
        1,
        "re-timed simulate_candidate",
    );
    rep.set(
        "emulator.ms",
        em.ms,
        em.calls as usize,
        "re-timed simulate_candidate",
    );
    rep.set(
        "emulator.ops",
        em.ops as f64,
        1,
        "OpEnd events via a counting sink",
    );
    rep.set(
        "emulator.ops_per_s",
        ratio(em.ops as f64, em.ms / 1e3),
        em.calls as usize,
        "ops / re-timed emulator seconds",
    );
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
        "memo hits / candidates",
    );
    rep.set(
        "plansearch.analytic_fallbacks",
        counts.analytic_fallbacks as f64,
        1,
        "PlanSearch events",
    );
    rep.set("manager.decisions", counts.decisions as f64, 1, "");
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
        ratio(revisits as f64, levels.len() as f64),
        levels.len(),
        "decisions at already-seen levels / decisions",
    );
    rep.set(
        "manager.self_ms",
        (decide_self_ms - retimed_inside).max(0.0),
        levels.len(),
        "decision self time (minus sink/WAL spans) minus re-timed planner + emulator",
    );
    rep.set("wal.appends", appends as f64, 1, "timed WalIo wrapper");
    rep.set("wal.append_ms", append_ms, appends, "timed WalIo wrapper");
    rep.set(
        "wal.bytes",
        rec.bytes as f64,
        1,
        "encoded log of the recovered session",
    );
    rep.set("wal.encode_ms", rec.encode_ms, 1, "");
    rep.set("wal.decode_ms", rec.decode_ms, 1, "");
    rep.set("wal.replayed_records", rec.replayed as f64, 1, "");
    rep.set("wal.torn_detected", f64::from(u8::from(rec.torn)), 1, "");
    rep.set("obs.events", events.len() as f64, 1, "");
    rep.set(
        "obs.sink_ms",
        sink_ms,
        events.len(),
        "timed EventSink wrapper",
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
        iteration_ms,
        levels.len(),
        "host ms of the traced walk's decisions",
    );
    rep.set(
        "trace.overhead_ms",
        overhead_ms,
        TWIN_DECISIONS,
        "traced minus untraced ms over the walk's first decisions",
    );
    rep.set("trace.spans", t.borrow().spans().len() as f64, 1, "");
    let share = ratio(retimed_inside, decide_ms);
    rep.set(
        "retime.share_of_parent",
        share,
        1,
        "re-timed planner + emulator over the decision spans (must be <= 1)",
    );
    if share > 1.0 {
        rep.note(format!(
            "note: re-timed layers sum to {share:.3} of their parent decision spans"
        ));
    }
    let split = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    let f = ratio(em.ms, cold_ms);
    rep.note(format!(
        "split: emulator.ms is {:.1}% of the cold decisions' host time (designed: most) -> {}",
        100.0 * f,
        split(f > 0.5)
    ));
    rep.note(format!(
        "split: warm decisions take {:.1} ms in all, {:.1}% of the walk, with no emulation (designed: analytic sweep plus memo) -> {}",
        warm_ms,
        100.0 * ratio(warm_ms, iteration_ms),
        split(counts.simulated == em.calls)
    ));
    rep.note(format!(
        "emulator: {:.0} ops/s live ({} ops in {:.1} ms); analytic: {:.1} us per estimate_minibatch_time call",
        ratio(em.ops as f64, em.ms / 1e3),
        em.ops,
        em.ms,
        ratio(pr.analytic_ms * 1e3, pr.analytic_calls as f64)
    ));
}
