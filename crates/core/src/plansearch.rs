//! Simulator-in-the-loop configuration search (paper §4.4, Table 7).
//!
//! The analytic planner ranks `(p, d, m)` candidates with a closed-form
//! estimate; the paper's job manager instead scores each candidate with
//! its *simulator* before morphing. [`SimSearch`] reproduces that loop:
//! it takes the same candidates as [`Planner::sweep`], unscored, and
//! scores them by running the `varuna-exec` discrete-event emulator at
//! zero jitter, with
//!
//! - a **memo table** keyed on `(p, d, m, N_m, offload, fingerprint)` —
//!   the fingerprint covers the model's cut-point graph and every
//!   calibrated primitive, so repeated morph events during a preemption
//!   burst reuse prior evaluations even when total capacity differs. The
//!   key fixes the whole candidate, so a memo hit is served without
//!   partitioning the model again;
//! - a **plan budget** (simulation count and/or wall-clock deadline) so
//!   manager re-planning stays bounded. The analytic estimate is computed
//!   only for candidates the budget leaves unscored (budget exhausted,
//!   deadline passed, or emulator error), degrading the search to the
//!   paper's `O(G)` analytic ranking rather than failing; a warm revisit
//!   served entirely from the memo runs no estimate at all.
//!
//! A pick ([`SimSearch::best_config`], the ladder, `Oracle::plan`) is an
//! exact **branch-and-bound** over the memo misses:
//!
//! - *Bound.* Each miss's placed job is built without its static
//!   schedule, and [`lower_bound`] gives a time no zero-jitter emulation
//!   of it can beat: its slowest stage's serial forward and backward
//!   compute plus that stage's sync tail.
//! - *Order.* The incumbent starts as the fastest memo hit. Misses are
//!   emulated best-first, in ascending bound (ties by sweep order).
//! - *Prune.* A miss whose bound is past the incumbent's time (by more
//!   than a throughput tie) is pruned: no schedule, no emulation, no memo
//!   entry and no budget used. It cannot be the pick, so it leaves the
//!   contenders, and the pick — including the last-of-equal-maxima tie
//!   rule — is the exhaustive sweep's.
//! - *Cutoff.* A miss that is emulated runs under the incumbent's time as
//!   a cutoff ([`simulate_schedule_within`]) and is abandoned, and
//!   pruned, once it provably cannot finish in time. Only a run that
//!   finishes within the cutoff is [`EvalPath::Simulated`], memoized and
//!   a candidate for incumbent.
//! - *Budget.* `max_simulations` counts emulator runs started, cut-off
//!   runs included. Misses the budget or the deadline leaves unrun keep
//!   their analytic estimate and compete on it, and so does a miss whose
//!   job cannot be placed (it uses no budget).
//!
//! The pick runs its misses one after another, so its counters, budget
//! and memo do not depend on the thread count.
//! [`SimSearch::sweep_scored`] stays exhaustive: it scores every candidate
//! (subject to the budget, in sweep order, fanned out over the search's
//! threads) and is what the Table 7 study and the emulator-cost
//! benchmarks read.
//!
//! The planning loop itself (the sweep, the pick and the recovery ladder)
//! lives here once. [`Planner`] runs it with the analytic estimate as the
//! only scorer, and [`SimSearch`] runs it with the passes above.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{lower_bound, simulate_schedule_within, SimOptions};

use crate::calibrate::Calibration;
use crate::error::VarunaError;
use crate::job::{static_schedule, TrainingJob};
use crate::planner::{Config, FallbackLevel, Planner};
use crate::VarunaCluster;

/// Bounds on one planning event (a sweep, or a whole fallback ladder).
///
/// `None` fields are unbounded. The simulation-count bound is
/// deterministic — two runs with the same budget score the same
/// candidates — while the wall-clock deadline depends on the machine;
/// tests that need byte-identical output should use count-only budgets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanBudget {
    /// Maximum emulator runs started per planning event, cut-off runs
    /// included (memo hits and pruned candidates are free).
    pub max_simulations: Option<usize>,
    /// Wall-clock deadline per planning event, seconds.
    pub deadline_seconds: Option<f64>,
}

impl PlanBudget {
    /// No bounds: every candidate is simulated or pruned.
    pub fn unlimited() -> Self {
        PlanBudget {
            max_simulations: None,
            deadline_seconds: None,
        }
    }

    /// At most `n` emulator runs per planning event (deterministic).
    pub fn simulations(n: usize) -> Self {
        PlanBudget {
            max_simulations: Some(n),
            deadline_seconds: None,
        }
    }

    /// A wall-clock deadline of `seconds` per planning event.
    pub fn deadline(seconds: f64) -> Self {
        PlanBudget {
            max_simulations: None,
            deadline_seconds: Some(seconds),
        }
    }

    /// Default manager tuning: at most 64 emulator runs and 10 s per
    /// planning event — far above what a Table-3-scale sweep needs, low
    /// enough that morph latency stays within the paper's "seconds".
    pub fn default_tuning() -> Self {
        PlanBudget {
            max_simulations: Some(64),
            deadline_seconds: Some(10.0),
        }
    }
}

/// How a candidate's mini-batch time was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalPath {
    /// The closed-form estimate (budget exhausted, deadline passed, or
    /// emulator error).
    Analytic,
    /// A fresh discrete-event emulation.
    Simulated,
    /// A memo-table hit from a previous planning event.
    Memoized,
}

/// Counters for one planning event, reported through `varuna-obs` and the
/// plan-latency bench. `simulated + memo_hits + analytic_fallbacks ==
/// candidates`; the sweep produced `candidates + pruned` candidates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PlanMetrics {
    /// Candidates scored (emulated, memoized or analytic); pruned ones
    /// are counted in `pruned` instead.
    pub candidates: u64,
    /// Candidates scored by a fresh emulation.
    pub simulated: u64,
    /// Candidates scored from the memo table.
    pub memo_hits: u64,
    /// Candidates left on their analytic estimate (budget exhausted or
    /// emulator error).
    pub analytic_fallbacks: u64,
    /// Candidates a pick proved unable to win, by their lower bound or by
    /// a cut-off emulation; they get no score.
    pub pruned: u64,
    /// Wall-clock planning time, seconds (not deterministic; never put
    /// this in an event stream that must be byte-identical across runs).
    pub plan_seconds: f64,
    /// Whether a budget bound cut the search short.
    pub budget_exhausted: bool,
}

impl PlanMetrics {
    /// Fraction of scored candidates served from the memo table.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.candidates as f64
        }
    }

    /// Folds another event's counters into this one (ladder rungs).
    pub fn merge(&mut self, other: &PlanMetrics) {
        self.candidates += other.candidates;
        self.simulated += other.simulated;
        self.memo_hits += other.memo_hits;
        self.analytic_fallbacks += other.analytic_fallbacks;
        self.pruned += other.pruned;
        self.plan_seconds += other.plan_seconds;
        self.budget_exhausted |= other.budget_exhausted;
    }
}

/// Which cluster family candidate jobs are emulated on, derived from the
/// calibration's `gpus_per_node` (the planner never sees the live cluster
/// object, only its calibrated parameters — §4.3's scale invariance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterTemplate {
    /// 1-GPU spot VMs (NC6_v3).
    Commodity1Gpu,
    /// 4-GPU spot VMs (NC24_v3).
    Commodity4Gpu,
    /// 16-GPU dedicated nodes (DGX-2).
    Hypercluster,
}

impl ClusterTemplate {
    /// The template matching `calib`'s profiled node shape.
    pub fn from_calibration(calib: &Calibration) -> Self {
        match calib.gpus_per_node {
            n if n >= 16 => ClusterTemplate::Hypercluster,
            n if n >= 4 => ClusterTemplate::Commodity4Gpu,
            _ => ClusterTemplate::Commodity1Gpu,
        }
    }

    /// Builds the smallest cluster of this family holding `gpus` GPUs.
    ///
    /// The emulated cluster is sized to the *candidate* (`p · d`), not to
    /// total capacity: the emulation result is then a pure function of the
    /// candidate, which is what makes the memo table valid across
    /// different capacity levels of a preemption burst.
    pub fn build(self, gpus: usize) -> VarunaCluster {
        match self {
            ClusterTemplate::Commodity1Gpu => VarunaCluster::commodity_1gpu(gpus),
            ClusterTemplate::Commodity4Gpu => VarunaCluster::commodity_4gpu(gpus.div_ceil(4)),
            ClusterTemplate::Hypercluster => VarunaCluster::hypercluster(gpus.div_ceil(16)),
        }
    }
}

/// Memo key: the candidate shape plus a fingerprint of everything else
/// the emulation depends on. Total GPU count is deliberately absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    p: usize,
    d: usize,
    m: usize,
    n_micro: usize,
    offload: bool,
    fingerprint: u64,
}

impl MemoKey {
    fn of(cfg: &Config, fingerprint: u64) -> Self {
        MemoKey {
            p: cfg.p,
            d: cfg.d,
            m: cfg.m,
            n_micro: cfg.n_micro,
            offload: cfg.offload,
            fingerprint,
        }
    }
}

/// FNV-1a over the cut-point graph and every calibrated primitive the
/// emulator reads — two calibrations with equal fingerprints produce
/// identical emulations for any candidate.
fn search_fingerprint(calib: &Calibration) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: &mut u64, v: u64) {
        for byte in v.to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(PRIME);
        }
    }
    let mut h = calib.graph.fingerprint();
    mix(&mut h, calib.gpus_per_node as u64);
    mix(&mut h, calib.gpu_memory.to_bits());
    mix(&mut h, calib.inter_bw.to_bits());
    mix(&mut h, calib.inter_lat.to_bits());
    mix(&mut h, calib.ar_contention.to_bits());
    for &m in &calib.ms {
        mix(&mut h, m as u64);
    }
    for row in calib.fwd.iter().chain(calib.bwd.iter()) {
        for &t in row {
            mix(&mut h, t.to_bits());
        }
    }
    for &t in calib
        .act_intra
        .iter()
        .chain(calib.act_inter.iter())
        .chain(calib.ar_probe.iter())
    {
        mix(&mut h, t.to_bits());
    }
    h
}

/// What one emulation under a cutoff returned.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// It finished in this many seconds.
    Done(f64),
    /// It was abandoned: it cannot finish by its cutoff.
    CutOff,
    /// The emulator rejected the candidate.
    Failed,
}

/// Emulates a memo miss, given its placed job, under a cutoff in seconds.
type Emulate<'a> = dyn Fn(&Config, &PlacedJob, f64) -> Run + Sync + 'a;

/// The production [`Emulate`]: the static schedule, then the emulator at
/// zero jitter.
fn emulate_within(calib: &Calibration, cfg: &Config, job: &PlacedJob, cutoff: f64) -> Run {
    let Ok(schedule) = static_schedule(calib, cfg) else {
        return Run::Failed;
    };
    match simulate_schedule_within(job, &schedule, cutoff) {
        Ok(Some(res)) => Run::Done(res.total_time),
        Ok(None) => Run::CutOff,
        Err(_) => Run::Failed,
    }
}

/// A memo miss waiting for the branch-and-bound: its place in the sweep,
/// its placed job and a lower bound on its emulated time. A miss pruned by
/// an earlier event comes with the bound that pruned it and no job yet.
struct Miss {
    idx: usize,
    job: Option<PlacedJob>,
    bound: f64,
}

/// What the search has learnt about candidates, by memo key.
#[derive(Debug, Clone, Default)]
struct Memo {
    /// Every candidate emulated to the end, scored with its exact time.
    exact: HashMap<MemoKey, Config>,
    /// Every pruned candidate's proven lower bound on its emulated time,
    /// so a later event prunes it again without partitioning the model.
    slower: HashMap<MemoKey, f64>,
}

/// The latest mini-batch time whose throughput, at `examples` per
/// mini-batch, still ties that of `best` seconds: a candidate slower than
/// this cannot be the pick, wherever it sits in the sweep. Infinite (no
/// cutoff) when there is no incumbent or the tie does not close within a
/// few ulps.
fn latest_tie(examples: usize, best: f64) -> f64 {
    let ex = examples as f64;
    let throughput = ex / best;
    let mut t = best;
    for _ in 0..64 {
        let next = t.next_up();
        if ex / next < throughput {
            return t;
        }
        t = next;
    }
    f64::INFINITY
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|dl| Instant::now() >= dl)
}

/// The simulator-in-the-loop search. Interior-mutable (the memo table is
/// behind a mutex) so a `&SimSearch` can score sweeps from worker threads.
#[derive(Debug)]
pub struct SimSearch {
    budget: PlanBudget,
    threads: usize,
    memo: Mutex<Memo>,
}

impl Clone for SimSearch {
    fn clone(&self) -> Self {
        SimSearch {
            budget: self.budget,
            threads: self.threads,
            memo: Mutex::new(self.memo.lock().expect("memo poisoned").clone()),
        }
    }
}

impl SimSearch {
    /// A search with `budget` and a thread count matching the host.
    pub fn new(budget: PlanBudget) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        SimSearch {
            budget,
            threads,
            memo: Mutex::new(Memo::default()),
        }
    }

    /// Overrides the fan-out width of [`SimSearch::sweep_scored`] (results
    /// are identical for any width; only wall-clock time changes).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> PlanBudget {
        self.budget
    }

    /// Entries in the memo table: candidates emulated to the end.
    pub fn memo_len(&self) -> usize {
        self.memo.lock().expect("memo poisoned").exact.len()
    }

    /// Drops every memoized evaluation and every remembered bound.
    pub fn clear_memo(&self) {
        *self.memo.lock().expect("memo poisoned") = Memo::default();
    }

    /// Emulates one candidate on a right-sized cluster of `template`'s
    /// family and returns its mini-batch wall-clock time.
    ///
    /// # Errors
    ///
    /// Propagates job-construction or emulator failures.
    pub fn simulate_candidate(
        calib: &Calibration,
        template: ClusterTemplate,
        cfg: &Config,
    ) -> Result<f64, VarunaError> {
        let cluster = template.build(cfg.gpus_used());
        let job = TrainingJob::build(calib, &cluster, cfg.clone())?;
        let (res, _) = job.run_minibatch(&SimOptions::deterministic())?;
        Ok(res.total_time)
    }

    /// Sweeps `g` GPUs like [`Planner::sweep`], scoring every candidate
    /// with the emulator (subject to budget), and tags each with how its
    /// score was obtained. Nothing is pruned.
    pub fn sweep_scored(
        &self,
        planner: &Planner<'_>,
        g: usize,
    ) -> (Vec<(Config, EvalPath)>, PlanMetrics) {
        sweep(planner, g, Some(self))
    }

    /// `planner`'s candidates for `g` GPUs in increasing `p`: memo hits
    /// served scored from the memo, on [`EvalPath::Memoized`], the rest
    /// unscored on [`EvalPath::Analytic`]. With `bare_bounds`, a candidate
    /// an earlier pick pruned is known to be feasible and stays a bare
    /// [`Planner::shape`], with no stage assignment yet, for
    /// [`SimSearch::branch_and_bound`] to prune again; every other miss is
    /// partitioned here.
    fn candidates(
        &self,
        planner: &Planner<'_>,
        g: usize,
        bare_bounds: bool,
    ) -> Vec<(Config, EvalPath)> {
        let fingerprint = search_fingerprint(planner.calibration());
        let memo = self.memo.lock().expect("memo poisoned");
        planner
            .shapes(g)
            .filter_map(|shape| {
                let key = MemoKey::of(&shape, fingerprint);
                if let Some(hit) = memo.exact.get(&key) {
                    let cfg = Config {
                        examples: shape.examples,
                        ..hit.clone()
                    };
                    return Some((cfg, EvalPath::Memoized));
                }
                if bare_bounds && memo.slower.contains_key(&key) {
                    return Some((shape, EvalPath::Analytic));
                }
                let cfg = planner.partitioned(shape).ok()?;
                Some((cfg, EvalPath::Analytic))
            })
            .collect()
    }

    /// Memoizes `cfg`, scored with its exact time.
    fn remember(&self, cfg: &Config, fingerprint: u64) {
        let key = MemoKey::of(cfg, fingerprint);
        let mut memo = self.memo.lock().expect("memo poisoned");
        memo.slower.remove(&key);
        memo.exact.insert(key, cfg.clone());
    }

    /// Records that `cfg` takes at least `bound` seconds.
    fn remember_slower(&self, cfg: &Config, fingerprint: u64, bound: f64) {
        let key = MemoKey::of(cfg, fingerprint);
        let mut memo = self.memo.lock().expect("memo poisoned");
        let known = memo.slower.entry(key).or_insert(bound);
        *known = known.max(bound);
    }

    /// The exhaustive emulation pass of a sweep over `scored`: every miss
    /// (a candidate still on [`EvalPath::Analytic`]) is emulated through
    /// `simulate`, in sweep order, while the simulation budget and the
    /// deadline last. Returns whether a budget bound left a miss unscored.
    fn emulate_all(
        &self,
        planner: &Planner<'_>,
        scored: &mut [(Config, EvalPath)],
        deadline: Option<Instant>,
        sims_left: &mut usize,
        simulate: &(dyn Fn(&Config) -> Result<f64, VarunaError> + Sync),
    ) -> bool {
        let fingerprint = search_fingerprint(planner.calibration());
        let mut misses: Vec<usize> = (0..scored.len())
            .filter(|&i| scored[i].1 == EvalPath::Analytic)
            .collect();

        // Budget pass: only the first `sims_left` misses get emulated; the
        // rest fall back to their analytic estimate.
        let mut exhausted = misses.len() > *sims_left;
        misses.truncate(*sims_left);

        // Parallel fan-out: scoped workers claim miss indices from a shared
        // cursor. Results land in per-slot cells, so the outcome is
        // independent of thread count and interleaving.
        let results: Vec<Mutex<Option<Result<f64, VarunaError>>>> =
            misses.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(misses.len());
        if workers > 0 {
            let scored = &*scored;
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= misses.len() || past(deadline) {
                            break;
                        }
                        let outcome = simulate(&scored[misses[k]].0);
                        *results[k].lock().expect("result slot poisoned") = Some(outcome);
                    });
                }
            });
        }

        for (k, &idx) in misses.iter().enumerate() {
            match results[k].lock().expect("result slot poisoned").take() {
                Some(Ok(t)) => {
                    *sims_left -= 1;
                    let (cfg, path) = &mut scored[idx];
                    cfg.est_minibatch_time = t;
                    *path = EvalPath::Simulated;
                    self.remember(cfg, fingerprint);
                }
                // The planner accepted it but the emulator could not run
                // it; it keeps its analytic score.
                Some(Err(_)) => *sims_left = sims_left.saturating_sub(1),
                // Deadline expired before a worker reached this slot.
                None => exhausted = true,
            }
        }
        exhausted
    }

    /// The branch-and-bound pass of a pick over `scored` (see the module
    /// docs): bounds every miss, then emulates or prunes them one by one
    /// in ascending bound against the incumbent, and removes the pruned
    /// ones from `scored`. A miss whose job cannot be placed keeps its
    /// analytic estimate and uses no budget; a remembered shape that no
    /// longer partitions is dropped, as the sweep drops it. Returns how
    /// many misses it pruned and whether a budget bound left an unpruned
    /// miss unscored.
    fn branch_and_bound(
        &self,
        planner: &Planner<'_>,
        scored: &mut Vec<(Config, EvalPath)>,
        deadline: Option<Instant>,
        sims_left: &mut usize,
        emulate: &Emulate<'_>,
    ) -> (u64, bool) {
        let calib = planner.calibration();
        let fingerprint = search_fingerprint(calib);
        let template = ClusterTemplate::from_calibration(calib);
        let place = |cfg: &Config| TrainingJob::place(calib, &template.build(cfg.gpus_used()), cfg);
        let examples = planner.total_batch();
        // The incumbent: the fastest exact time so far.
        let mut best = f64::INFINITY;
        let mut misses = Vec::new();
        {
            let memo = self.memo.lock().expect("memo poisoned");
            for (idx, (cfg, path)) in scored.iter().enumerate() {
                if *path == EvalPath::Memoized {
                    best = best.min(cfg.est_minibatch_time);
                } else if let Some(&bound) = memo.slower.get(&MemoKey::of(cfg, fingerprint)) {
                    misses.push(Miss {
                        idx,
                        job: None,
                        bound,
                    });
                } else if let Ok(job) = place(cfg) {
                    let bound = lower_bound(&job);
                    misses.push(Miss {
                        idx,
                        job: Some(job),
                        bound,
                    });
                }
            }
        }
        misses.sort_by(|a, b| a.bound.total_cmp(&b.bound).then(a.idx.cmp(&b.idx)));

        let mut keep = vec![true; scored.len()];
        let (mut pruned, mut exhausted) = (0, false);
        for miss in misses {
            let limit = latest_tie(examples, best);
            let (cfg, path) = &mut scored[miss.idx];
            if miss.bound > limit {
                keep[miss.idx] = false;
                pruned += 1;
                self.remember_slower(cfg, fingerprint, miss.bound);
                continue;
            }
            // A miss pruned before is partitioned and placed once it has
            // to be scored after all.
            if miss.job.is_none() {
                match planner.partitioned(cfg.clone()) {
                    Ok(full) => *cfg = full,
                    Err(_) => {
                        keep[miss.idx] = false;
                        continue;
                    }
                }
            }
            if *sims_left == 0 || past(deadline) {
                exhausted = true;
                continue;
            }
            let run = match miss.job.map_or_else(|| place(cfg), Ok) {
                Ok(job) => emulate(cfg, &job, limit),
                // Not placeable after all: it keeps its analytic score.
                Err(_) => continue,
            };
            *sims_left -= 1;
            match run {
                Run::Done(t) if t <= limit => {
                    cfg.est_minibatch_time = t;
                    *path = EvalPath::Simulated;
                    self.remember(cfg, fingerprint);
                    best = best.min(t);
                }
                // It cannot finish by `limit`.
                Run::Done(_) | Run::CutOff => {
                    keep[miss.idx] = false;
                    pruned += 1;
                    self.remember_slower(cfg, fingerprint, miss.bound.max(limit.next_up()));
                }
                // The emulator rejected it; it keeps its analytic score.
                Run::Failed => {}
            }
        }
        let mut keep = keep.into_iter();
        scored.retain(|_| keep.next() == Some(true));
        (pruned, exhausted)
    }

    /// The best configuration for `g` GPUs by emulator-scored throughput.
    ///
    /// # Errors
    ///
    /// Fails when no pipeline depth fits memory on `g` GPUs (same
    /// feasibility set as the analytic [`Planner::best_config`]).
    pub fn best_config(
        &self,
        planner: &Planner<'_>,
        g: usize,
    ) -> Result<(Config, PlanMetrics), VarunaError> {
        plan(planner, g, Some(self), false).map(|(cfg, _, metrics)| (cfg, metrics))
    }

    /// The emulator-scored counterpart of
    /// [`Planner::best_config_with_fallback`]: the same recovery ladder,
    /// with every rung's sweep scored by the emulator. The budget spans
    /// the whole ladder, not each rung.
    ///
    /// # Errors
    ///
    /// Fails only when no rung of the ladder fits `g` GPUs.
    pub fn best_config_with_fallback(
        &self,
        planner: &Planner<'_>,
        g: usize,
    ) -> Result<(Config, FallbackLevel, PlanMetrics), VarunaError> {
        plan(planner, g, Some(self), true)
    }
}

/// One planning event: its clock, its deadline and the simulations it has
/// left, shared by every rung of the recovery ladder. Without a
/// [`SimSearch`] every candidate gets the analytic score and the bounds
/// are unused.
struct PlanEvent<'s> {
    search: Option<&'s SimSearch>,
    start: Instant,
    deadline: Option<Instant>,
    sims_left: usize,
    metrics: PlanMetrics,
}

impl<'s> PlanEvent<'s> {
    fn start(search: Option<&'s SimSearch>) -> Self {
        let start = Instant::now();
        let budget = search.map_or(PlanBudget::unlimited(), SimSearch::budget);
        // A deadline too far out to represent is no deadline; a negative
        // or NaN one has already passed.
        let deadline = budget
            .deadline_seconds
            .and_then(|s| match Duration::try_from_secs_f64(s) {
                Ok(d) => start.checked_add(d),
                Err(_) if s > 0.0 => None,
                Err(_) => Some(start),
            });
        PlanEvent {
            search,
            start,
            deadline,
            sims_left: budget.max_simulations.unwrap_or(usize::MAX),
            metrics: PlanMetrics::default(),
        }
    }

    /// `planner`'s candidates for `g` GPUs, through the search's memo when
    /// there is one (see [`SimSearch::candidates`] for `bare_bounds`).
    fn candidates(
        &self,
        planner: &Planner<'_>,
        g: usize,
        bare_bounds: bool,
    ) -> Vec<(Config, EvalPath)> {
        match self.search {
            Some(search) => search.candidates(planner, g, bare_bounds),
            None => planner
                .candidates(g)
                .into_iter()
                .map(|c| (c, EvalPath::Analytic))
                .collect(),
        }
    }

    /// Scores each of `planner`'s candidates for `g` GPUs exactly once:
    /// through [`SimSearch::emulate_all`] on the simulated path, then the
    /// analytic estimate for whatever that left unscored (every candidate
    /// on the analytic path).
    fn score(
        &mut self,
        planner: &Planner<'_>,
        g: usize,
        simulate: &(dyn Fn(&Config) -> Result<f64, VarunaError> + Sync),
    ) -> Vec<(Config, EvalPath)> {
        let mut scored = self.candidates(planner, g, false);
        let exhausted = self.search.is_some_and(|search| {
            search.emulate_all(
                planner,
                &mut scored,
                self.deadline,
                &mut self.sims_left,
                simulate,
            )
        });
        self.tally(planner, scored, 0, exhausted)
    }

    /// [`PlanEvent::score`] with the emulator as the simulator.
    fn sweep(&mut self, planner: &Planner<'_>, g: usize) -> Vec<(Config, EvalPath)> {
        let calib = planner.calibration();
        let template = ClusterTemplate::from_calibration(calib);
        self.score(planner, g, &|cfg: &Config| {
            SimSearch::simulate_candidate(calib, template, cfg)
        })
    }

    /// The candidates a pick chooses among: [`PlanEvent::sweep`], except
    /// that a search runs [`SimSearch::branch_and_bound`] through
    /// `emulate`, which removes what it pruned.
    fn contenders(
        &mut self,
        planner: &Planner<'_>,
        g: usize,
        emulate: &Emulate<'_>,
    ) -> Vec<(Config, EvalPath)> {
        let mut scored = self.candidates(planner, g, true);
        let (pruned, exhausted) = match self.search {
            Some(search) => search.branch_and_bound(
                planner,
                &mut scored,
                self.deadline,
                &mut self.sims_left,
                emulate,
            ),
            None => (0, false),
        };
        self.tally(planner, scored, pruned, exhausted)
    }

    /// Gives every candidate still on [`EvalPath::Analytic`] its analytic
    /// estimate (dropping one whose estimate fails) and counts them, with
    /// `pruned` more that the pick removed.
    fn tally(
        &mut self,
        planner: &Planner<'_>,
        mut scored: Vec<(Config, EvalPath)>,
        pruned: u64,
        exhausted: bool,
    ) -> Vec<(Config, EvalPath)> {
        scored.retain_mut(|(cfg, path)| {
            *path != EvalPath::Analytic
                || planner
                    .estimate(cfg)
                    .map(|t| cfg.est_minibatch_time = t)
                    .is_ok()
        });
        let count = |want| scored.iter().filter(|(_, path)| *path == want).count() as u64;
        self.metrics.merge(&PlanMetrics {
            candidates: scored.len() as u64,
            simulated: count(EvalPath::Simulated),
            memo_hits: count(EvalPath::Memoized),
            analytic_fallbacks: count(EvalPath::Analytic),
            pruned,
            plan_seconds: 0.0,
            budget_exhausted: exhausted,
        });
        scored
    }

    fn finish(mut self) -> PlanMetrics {
        self.metrics.plan_seconds = self.start.elapsed().as_secs_f64();
        self.metrics
    }
}

/// One rung's scored sweep as a planning event of its own.
pub(crate) fn sweep(
    planner: &Planner<'_>,
    g: usize,
    search: Option<&SimSearch>,
) -> (Vec<(Config, EvalPath)>, PlanMetrics) {
    let mut event = PlanEvent::start(search);
    let scored = event.sweep(planner, g);
    (scored, event.finish())
}

/// The planning loop of paper §4.4, for both scorers. The rungs are the
/// preferred micro-batch, then (with `ladder`) halving it down to 1, then
/// CPU optimizer-state offload at `m = 1`. Each rung is searched under the
/// one event's budget, and the first rung with a feasible candidate
/// yields its highest-throughput one (the last of equal maxima).
///
/// # Errors
///
/// Fails when no rung has a feasible candidate for `g` GPUs, or, without
/// the ladder, when the micro-batch size was not calibrated.
pub(crate) fn plan(
    planner: &Planner<'_>,
    g: usize,
    search: Option<&SimSearch>,
    ladder: bool,
) -> Result<(Config, FallbackLevel, PlanMetrics), VarunaError> {
    let calib = planner.calibration();
    plan_with(planner, g, search, ladder, &|cfg, job, cutoff| {
        emulate_within(calib, cfg, job, cutoff)
    })
}

/// [`plan`] with `emulate` running the misses.
fn plan_with(
    planner: &Planner<'_>,
    g: usize,
    search: Option<&SimSearch>,
    ladder: bool,
    emulate: &Emulate<'_>,
) -> Result<(Config, FallbackLevel, PlanMetrics), VarunaError> {
    if !ladder {
        planner.calibrated_m()?;
    }
    let mut rungs = vec![(planner.clone(), FallbackLevel::None)];
    if ladder {
        let mut m = planner.chosen_m() / 2;
        while m >= 1 {
            rungs.push((
                planner.clone().micro_batch(m),
                FallbackLevel::ReducedMicroBatch(m),
            ));
            m /= 2;
        }
        rungs.push((
            planner.clone().micro_batch(1).offload(true),
            FallbackLevel::Offload,
        ));
    }
    let mut event = PlanEvent::start(search);
    for (rung, level) in rungs {
        let best = event
            .contenders(&rung, g, emulate)
            .into_iter()
            .map(|(cfg, _)| cfg)
            .max_by(|a, b| a.throughput().total_cmp(&b.throughput()));
        if let Some(cfg) = best {
            return Ok((cfg, level, event.finish()));
        }
    }
    Err(planner.no_feasible(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_models::ModelZoo;

    fn setup(gpus: usize) -> Calibration {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(gpus))
    }

    fn configs(scored: Vec<(Config, EvalPath)>) -> Vec<Config> {
        scored.into_iter().map(|(cfg, _)| cfg).collect()
    }

    #[test]
    fn simulated_sweep_covers_the_analytic_candidate_set() {
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        let search = SimSearch::new(PlanBudget::unlimited());
        let (scored, metrics) = search.sweep_scored(&planner, 24);
        let analytic = planner.sweep(24);
        assert_eq!(scored.len(), analytic.len());
        assert_eq!(metrics.candidates as usize, analytic.len());
        assert_eq!(metrics.simulated as usize, analytic.len());
        assert_eq!(metrics.memo_hits, 0);
        assert_eq!(metrics.analytic_fallbacks, 0);
        for ((sim, path), ana) in scored.iter().zip(&analytic) {
            assert_eq!(
                (sim.p, sim.d, sim.m, sim.n_micro),
                (ana.p, ana.d, ana.m, ana.n_micro)
            );
            assert_eq!(*path, EvalPath::Simulated);
            assert!(sim.est_minibatch_time > 0.0);
        }
    }

    #[test]
    fn second_sweep_is_served_from_the_memo() {
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        let search = SimSearch::new(PlanBudget::unlimited());
        let (cold, m1) = search.sweep_scored(&planner, 24);
        let (warm, m2) = search.sweep_scored(&planner, 24);
        assert_eq!(
            configs(cold),
            configs(warm),
            "memoized scores must equal fresh ones"
        );
        assert_eq!(m1.memo_hits, 0);
        assert_eq!(m2.memo_hits, m1.candidates);
        assert_eq!(m2.simulated, 0);
        assert!(m2.cache_hit_rate() > 0.99);
    }

    #[test]
    fn memo_survives_capacity_changes_that_share_candidates() {
        // A preemption from 24 to 12 GPUs re-plans; the (p, d) pairs with
        // d = 12/p coincide with d = 24/(2p) candidates only when shapes
        // repeat — but candidates from a revisit of 24 GPUs must all hit.
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        let search = SimSearch::new(PlanBudget::unlimited());
        let (_, _) = search.sweep_scored(&planner, 24);
        let (_, down) = search.sweep_scored(&planner, 12);
        let (_, back) = search.sweep_scored(&planner, 24);
        assert_eq!(back.memo_hits, back.candidates, "full revisit reuse");
        assert!(down.simulated <= down.candidates);
    }

    #[test]
    fn zero_budget_degrades_to_the_analytic_ranking() {
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        let search = SimSearch::new(PlanBudget::simulations(0));
        let (scored, metrics) = search.sweep_scored(&planner, 24);
        assert!(metrics.budget_exhausted);
        assert_eq!(metrics.simulated, 0);
        assert_eq!(metrics.analytic_fallbacks, metrics.candidates);
        let analytic = planner.sweep(24);
        for ((sim, path), ana) in scored.iter().zip(&analytic) {
            assert_eq!(*path, EvalPath::Analytic);
            assert_eq!(sim.est_minibatch_time, ana.est_minibatch_time);
        }
        // Ranking identical to the analytic planner's.
        let (best, _) = search.best_config(&planner, 24).unwrap();
        let ana_best = planner.best_config(24).unwrap();
        assert_eq!((best.p, best.d), (ana_best.p, ana_best.d));
    }

    #[test]
    fn partial_budget_scores_a_prefix_and_flags_exhaustion() {
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        let search = SimSearch::new(PlanBudget::simulations(2));
        let (scored, metrics) = search.sweep_scored(&planner, 24);
        assert!(metrics.candidates > 2, "need >2 candidates for this test");
        assert_eq!(metrics.simulated, 2);
        assert!(metrics.budget_exhausted);
        let simulated = scored
            .iter()
            .filter(|(_, p)| *p == EvalPath::Simulated)
            .count();
        assert_eq!(simulated, 2);
    }

    #[test]
    fn fallback_ladder_matches_the_analytic_rungs() {
        // 8.3B at m=8 on 10 GPUs forces the ladder down to m=1; the
        // simulated ladder must land on the same rung as the analytic one.
        let model = ModelZoo::gpt2_8_3b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(128));
        let planner = Planner::new(&model, &calib).batch_size(512).micro_batch(8);
        let (_, ana_level) = planner.best_config_with_fallback(10).unwrap();
        assert_eq!(ana_level, FallbackLevel::ReducedMicroBatch(1));
        let search = SimSearch::new(PlanBudget::unlimited());
        let (cfg, sim_level, metrics) = search.best_config_with_fallback(&planner, 10).unwrap();
        assert_eq!(sim_level, ana_level);
        assert!(cfg.gpus_used() <= 10);
        assert!(metrics.candidates > 0);
    }

    #[test]
    fn infeasible_capacity_is_a_typed_error() {
        let model = ModelZoo::gpt2_8_3b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(128));
        let planner = Planner::new(&model, &calib).batch_size(8192).micro_batch(4);
        let search = SimSearch::new(PlanBudget::unlimited());
        let err = search.best_config(&planner, 4).unwrap_err();
        assert!(matches!(err, VarunaError::NoFeasibleConfig { gpus: 4, .. }));
        assert!(search.best_config_with_fallback(&planner, 2).is_err());
    }

    #[test]
    fn thread_width_does_not_change_scores() {
        let calib = setup(16);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(512)
            .micro_batch(4);
        let wide = SimSearch::new(PlanBudget::unlimited()).threads(8);
        let narrow = SimSearch::new(PlanBudget::unlimited()).threads(1);
        let (a, _) = wide.sweep_scored(&planner, 16);
        let (b, _) = narrow.sweep_scored(&planner, 16);
        assert_eq!(configs(a), configs(b));
    }

    #[test]
    fn unrepresentable_deadlines_plan_without_panicking() {
        let calib = setup(8);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(256)
            .micro_batch(4);
        let analytic = planner.best_config(8).unwrap();
        // Too far out to represent: no deadline, every candidate emulated.
        for s in [f64::INFINITY, 1e19] {
            let search = SimSearch::new(PlanBudget::deadline(s));
            let (_, metrics) = search.best_config(&planner, 8).unwrap();
            assert_eq!(metrics.simulated, metrics.candidates, "deadline {s}");
            assert!(!metrics.budget_exhausted, "deadline {s}");
        }
        // Negative or NaN: already passed, so the analytic ranking.
        for s in [-1.0, f64::NAN] {
            let search = SimSearch::new(PlanBudget::deadline(s));
            let (best, metrics) = search.best_config(&planner, 8).unwrap();
            assert_eq!(metrics.simulated, 0, "deadline {s}");
            assert!(metrics.budget_exhausted, "deadline {s}");
            assert_eq!(metrics.analytic_fallbacks, metrics.candidates);
            assert_eq!(best, analytic, "deadline {s}");
        }
    }

    #[test]
    fn cluster_template_follows_the_calibrated_node_shape() {
        let model = ModelZoo::gpt2_2_5b();
        let c1 = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(8));
        let c4 = Calibration::profile(&model, &VarunaCluster::commodity_4gpu(2));
        let c16 = Calibration::profile(&model, &VarunaCluster::hypercluster(1));
        assert_eq!(
            ClusterTemplate::from_calibration(&c1),
            ClusterTemplate::Commodity1Gpu
        );
        assert_eq!(
            ClusterTemplate::from_calibration(&c4),
            ClusterTemplate::Commodity4Gpu
        );
        assert_eq!(
            ClusterTemplate::from_calibration(&c16),
            ClusterTemplate::Hypercluster
        );
        assert_eq!(ClusterTemplate::Commodity4Gpu.build(6).gpus(), 8);
        assert_eq!(ClusterTemplate::Hypercluster.build(17).gpus(), 32);
    }

    /// The search as it was before the analytic estimate went lazy:
    /// `planner.sweep(g)` scores every candidate analytically up front,
    /// then memo hits and emulations overwrite those scores.
    fn reference_sweep(
        search: &SimSearch,
        planner: &Planner<'_>,
        g: usize,
        sims_left: &mut usize,
        simulate: &dyn Fn(&Config) -> Result<f64, VarunaError>,
    ) -> (Vec<(Config, EvalPath)>, PlanMetrics) {
        let fingerprint = search_fingerprint(planner.calibration());
        let mut scored: Vec<(Config, EvalPath)> = planner
            .sweep(g)
            .into_iter()
            .map(|c| (c, EvalPath::Analytic))
            .collect();
        let mut metrics = PlanMetrics {
            candidates: scored.len() as u64,
            ..PlanMetrics::default()
        };
        let mut memo = search.memo.lock().unwrap();
        let memo = &mut memo.exact;
        let mut misses = Vec::new();
        for (i, (cfg, path)) in scored.iter_mut().enumerate() {
            if let Some(hit) = memo.get(&MemoKey::of(cfg, fingerprint)) {
                cfg.est_minibatch_time = hit.est_minibatch_time;
                *path = EvalPath::Memoized;
                metrics.memo_hits += 1;
            } else {
                misses.push(i);
            }
        }
        if misses.len() > *sims_left {
            metrics.budget_exhausted = true;
            metrics.analytic_fallbacks += (misses.len() - *sims_left) as u64;
            misses.truncate(*sims_left);
        }
        for idx in misses {
            match simulate(&scored[idx].0) {
                Ok(t) => {
                    *sims_left -= 1;
                    metrics.simulated += 1;
                    let (cfg, path) = &mut scored[idx];
                    cfg.est_minibatch_time = t;
                    *path = EvalPath::Simulated;
                    memo.insert(MemoKey::of(cfg, fingerprint), cfg.clone());
                }
                Err(_) => {
                    *sims_left = sims_left.saturating_sub(1);
                    metrics.analytic_fallbacks += 1;
                }
            }
        }
        (scored, metrics)
    }

    /// Runs `gs` as consecutive planning events through both the search
    /// and the reference (each with its own memo), asserting the same
    /// candidates in the same order, the same paths, bit-identical scores
    /// and the same counters at every step. Returns the search's results.
    fn assert_matches_reference(
        planner: &Planner<'_>,
        budget: PlanBudget,
        gs: &[usize],
        simulate: &(dyn Fn(&Config) -> Result<f64, VarunaError> + Sync),
    ) -> Vec<(Vec<(Config, EvalPath)>, PlanMetrics)> {
        let search = SimSearch::new(budget).threads(2);
        let reference = SimSearch::new(budget);
        let mut out = Vec::new();
        for &g in gs {
            let mut event = PlanEvent::start(Some(&search));
            let mut ref_left = event.sims_left;
            let got = event.score(planner, g, simulate);
            let (metrics, left) = (event.metrics, event.sims_left);
            let (want, ref_metrics) =
                reference_sweep(&reference, planner, g, &mut ref_left, simulate);
            let shape = |v: &[(Config, EvalPath)]| -> Vec<_> {
                v.iter()
                    .map(|(c, path)| {
                        let mut c = c.clone();
                        c.est_minibatch_time = 0.0;
                        (c, *path)
                    })
                    .collect()
            };
            let bits = |v: &[(Config, EvalPath)]| -> Vec<u64> {
                v.iter()
                    .map(|(c, _)| c.est_minibatch_time.to_bits())
                    .collect()
            };
            assert_eq!(shape(&got), shape(&want), "candidates/paths at g={g}");
            assert_eq!(bits(&got), bits(&want), "scores at g={g}");
            assert_eq!(metrics, ref_metrics, "counters at g={g}");
            assert_eq!(left, ref_left, "budget left at g={g}");
            assert_eq!(search.memo_len(), reference.memo_len());
            out.push((got, metrics));
        }
        out
    }

    fn emulate(calib: &Calibration) -> impl Fn(&Config) -> Result<f64, VarunaError> + Sync + '_ {
        let template = ClusterTemplate::from_calibration(calib);
        move |cfg: &Config| SimSearch::simulate_candidate(calib, template, cfg)
    }

    #[test]
    fn lazy_analytic_scoring_matches_the_eager_reference_under_every_budget() {
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        // 24 -> 12 -> 24: cold, partly memoized, fully memoized.
        let gs = [24, 12, 24];
        for budget in [
            PlanBudget::unlimited(),
            PlanBudget::simulations(0),
            PlanBudget::simulations(3),
        ] {
            let runs = assert_matches_reference(&planner, budget, &gs, &emulate(&calib));
            let paths = |i: usize, want: EvalPath| {
                runs[i].0.iter().filter(|(_, p)| *p == want).count() as u64
            };
            assert!(runs[0].1.candidates > 3);
            match budget.max_simulations {
                None => assert_eq!(runs[2].1.memo_hits, runs[2].1.candidates),
                Some(0) => assert_eq!(paths(0, EvalPath::Analytic), runs[0].1.candidates),
                Some(n) => assert_eq!(paths(0, EvalPath::Simulated), n as u64),
            }
        }
    }

    #[test]
    fn lazy_analytic_scoring_matches_the_reference_on_both_fallback_rungs() {
        // 8.3B does not fit at m = 32 on 16 GPUs: a reduced-m rung carries
        // the plan.
        let model = ModelZoo::gpt2_8_3b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(128));
        let planner = Planner::new(&model, &calib).batch_size(64).micro_batch(32);
        assert!(planner.candidates(16).is_empty());
        let (_, level) = planner.best_config_with_fallback(16).unwrap();
        let FallbackLevel::ReducedMicroBatch(m) = level else {
            panic!("expected a reduced-m rung, got {level:?}");
        };
        let reduced = planner.clone().micro_batch(m);
        let runs =
            assert_matches_reference(&reduced, PlanBudget::unlimited(), &[16], &emulate(&calib));
        assert!(runs[0].1.simulated > 0);

        // 200B only fits offloaded at m = 1: the last rung.
        let model = ModelZoo::gpt2_200b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(102));
        let planner = Planner::new(&model, &calib).batch_size(16).micro_batch(1);
        let (_, level) = planner.best_config_with_fallback(102).unwrap();
        assert_eq!(level, FallbackLevel::Offload);
        let offloaded = planner.clone().offload(true);
        for budget in [PlanBudget::simulations(0), PlanBudget::simulations(3)] {
            let runs = assert_matches_reference(&offloaded, budget, &[102], &emulate(&calib));
            assert!(runs[0].0.iter().all(|(c, _)| c.offload));
        }
    }

    #[test]
    fn a_candidate_the_emulator_rejects_keeps_its_analytic_estimate() {
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        let real = emulate(&calib);
        let rejected = planner.candidates(24)[1].p;
        let flaky = |cfg: &Config| {
            if cfg.p == rejected {
                Err(VarunaError::InvalidConfig("emulator rejected".to_string()))
            } else {
                real(cfg)
            }
        };
        let runs = assert_matches_reference(&planner, PlanBudget::unlimited(), &[24], &flaky);
        let (scored, metrics) = &runs[0];
        assert_eq!(metrics.analytic_fallbacks, 1);
        assert_eq!(metrics.simulated + 1, metrics.candidates);
        let (cfg, path) = scored.iter().find(|(c, _)| c.p == rejected).unwrap();
        assert_eq!(*path, EvalPath::Analytic);
        let analytic = planner.evaluate(cfg.p, cfg.d).unwrap();
        assert_eq!(
            cfg.est_minibatch_time.to_bits(),
            analytic.est_minibatch_time.to_bits()
        );
    }

    #[test]
    fn fingerprint_distinguishes_calibrations() {
        let a = setup(16);
        let b = setup(16);
        assert_eq!(search_fingerprint(&a), search_fingerprint(&b));
        let other =
            Calibration::profile(&ModelZoo::bert_large(), &VarunaCluster::commodity_1gpu(16));
        assert_ne!(search_fingerprint(&a), search_fingerprint(&other));
    }

    #[test]
    fn memo_served_candidates_equal_what_the_planner_builds() {
        let calib = setup(100);
        let a = Planner::new(&calib.model, &calib)
            .batch_size(1024)
            .micro_batch(4);
        // Another `M_total` with the same `N_m` at some depths shares
        // their memo keys.
        let b = a.clone().batch_size(1020);
        let sweeps = SimSearch::new(PlanBudget::unlimited());
        let picks = SimSearch::new(PlanBudget::unlimited());
        let (mut hits, mut bare) = (0, 0);
        for g in [24, 36, 100] {
            sweeps.sweep_scored(&a, g);
            picks.best_config(&a, g).unwrap();
            for planner in [&a, &b] {
                let built = planner.candidates(g);
                for search in [&sweeps, &picks] {
                    let served = search.candidates(planner, g, true);
                    assert_eq!(served.len(), built.len(), "at {g} GPUs");
                    for ((cfg, path), want) in served.into_iter().zip(&built) {
                        let mut cfg = match path {
                            EvalPath::Memoized => {
                                hits += 1;
                                assert!(cfg.est_minibatch_time > 0.0);
                                cfg
                            }
                            _ if cfg.assignment.is_empty() => {
                                bare += 1;
                                planner.partitioned(cfg).unwrap()
                            }
                            _ => cfg,
                        };
                        cfg.est_minibatch_time = want.est_minibatch_time;
                        assert_eq!(format!("{cfg:?}"), format!("{want:?}"), "at {g} GPUs");
                    }
                }
            }
        }
        assert!(
            hits > 0 && bare > 0,
            "{hits} hits, {bare} remembered bounds"
        );
    }

    /// One branch-and-bound pick of 2.5B at 36 GPUs under `budget` on a
    /// cold search `threads` wide: the contenders, the counters, the
    /// emulator runs started and the runs that did not finish within their
    /// cutoff.
    fn counted_pick(
        calib: &Calibration,
        budget: PlanBudget,
        threads: usize,
    ) -> (Vec<(Config, EvalPath)>, PlanMetrics, usize, usize) {
        let planner = Planner::new(&calib.model, calib)
            .batch_size(1024)
            .micro_batch(4);
        let (started, cut) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let emulate = |cfg: &Config, job: &PlacedJob, cutoff: f64| {
            started.fetch_add(1, Ordering::Relaxed);
            let run = emulate_within(calib, cfg, job, cutoff);
            if !matches!(run, Run::Done(t) if t <= cutoff) {
                cut.fetch_add(1, Ordering::Relaxed);
            }
            run
        };
        let search = SimSearch::new(budget).threads(threads);
        let mut event = PlanEvent::start(Some(&search));
        let scored = event.contenders(&planner, 36, &emulate);
        assert_eq!(search.memo_len() as u64, event.metrics.simulated);
        (
            scored,
            event.metrics,
            started.into_inner(),
            cut.into_inner(),
        )
    }

    #[test]
    fn a_finite_budget_counts_runs_started_and_prunes_for_free() {
        let calib = setup(100);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(1024)
            .micro_batch(4);
        let sweep = planner.sweep(36);
        let (all, full, runs, cut) = counted_pick(&calib, PlanBudget::unlimited(), 1);
        assert_eq!(full.candidates + full.pruned, sweep.len() as u64);
        assert!(
            full.pruned > cut as u64,
            "some candidates pruned before running"
        );
        assert_eq!(full.simulated + cut as u64, runs as u64);
        for threads in [1, 8] {
            for n in 0..=runs + 1 {
                let budget = PlanBudget::simulations(n);
                let (scored, m, started, cut) = counted_pick(&calib, budget, threads);
                let at = format!("budget {n}, {threads} threads");
                // Runs started, cut-off ones included, are what the budget
                // counts; they are a prefix of the unlimited pick's runs.
                assert_eq!(started, n.min(runs), "{at}");
                assert_eq!(m.simulated + cut as u64, started as u64, "{at}");
                assert_eq!(m.candidates + m.pruned, sweep.len() as u64, "{at}");
                assert_eq!(m.budget_exhausted, n < runs, "{at}");
                assert_eq!(m.analytic_fallbacks > 0, n < runs, "{at}");
                // Misses left unrun keep their analytic estimate.
                for (cfg, path) in &scored {
                    if *path == EvalPath::Analytic {
                        let analytic = planner.evaluate(cfg.p, cfg.d).unwrap();
                        assert_eq!(cfg.est_minibatch_time, analytic.est_minibatch_time);
                    }
                }
                if n >= runs {
                    assert_eq!(scored, all, "{at}");
                }
            }
        }
    }

    #[test]
    fn a_candidate_the_emulator_rejects_in_a_pick_keeps_its_analytic_estimate() {
        let calib = setup(24);
        let planner = Planner::new(&calib.model, &calib)
            .batch_size(768)
            .micro_batch(4);
        let template = ClusterTemplate::from_calibration(&calib);
        let bound = |cfg: &Config| {
            let job = TrainingJob::place(&calib, &template.build(cfg.gpus_used()), cfg);
            lower_bound(&job.unwrap())
        };
        // The first miss in bound order always runs.
        let first = planner
            .candidates(24)
            .into_iter()
            .min_by(|a, b| bound(a).total_cmp(&bound(b)))
            .unwrap();
        let flaky = |cfg: &Config, job: &PlacedJob, cutoff: f64| {
            if cfg.p == first.p {
                Run::Failed
            } else {
                emulate_within(&calib, cfg, job, cutoff)
            }
        };
        for threads in [1, 3] {
            let search = SimSearch::new(PlanBudget::unlimited()).threads(threads);
            let mut event = PlanEvent::start(Some(&search));
            let scored = event.contenders(&planner, 24, &flaky);
            assert_eq!(event.metrics.analytic_fallbacks, 1);
            let (cfg, path) = scored.iter().find(|(c, _)| c.p == first.p).unwrap();
            assert_eq!(*path, EvalPath::Analytic);
            let analytic = planner.evaluate(cfg.p, cfg.d).unwrap();
            assert_eq!(
                cfg.est_minibatch_time.to_bits(),
                analytic.est_minibatch_time.to_bits()
            );
            assert_eq!(search.memo_len() as u64, event.metrics.simulated);
        }
    }
}
