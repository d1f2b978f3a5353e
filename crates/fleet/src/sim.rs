//! The fleet control loop: N jobs, one shared spot market, one arbiter.
//!
//! [`run_fleet`] replays a shared market [`ClusterTrace`] through a
//! discrete-event loop. Grants land in a free pool tracked by the
//! cluster layer's [`LeaseBook`]; every arbitration round the
//! [`crate::arbiter`] computes per-job spot entitlements and the loop
//! reconciles leases to them — revoking only from jobs above their
//! entitlement (preemption-of-the-preemptible), then handing freed VMs
//! to jobs below it. The provisioning layer
//! ([`crate::ProvisionPolicy`]) tops jobs up with on-demand capacity
//! where the policy allows, and each job's own [`Manager`] is driven
//! through [`Manager::on_external_capacity_walled`] so it re-plans, morphs,
//! degrades and recovers exactly as it would under single-job trace
//! replay.
//!
//! Everything is deterministic: the loop iterates jobs in index order,
//! the lease book and all aggregation maps are `BTreeMap`s, the arbiter
//! breaks ties by index, and no wall-clock value enters any event. Same
//! config + same trace ⇒ byte-identical event streams and digests.

use varuna::{
    Calibration, Manager, ManagerState, Oracle, PlanCache, RecoveryReport, VarunaCluster,
};
use varuna_chaos::{digest_control_events, digest_events};
use varuna_cluster::trace::{ClusterEventKind, ClusterTrace};
use varuna_cluster::{LeaseBook, LeaseEntry, VmSku};
use varuna_obs::{profile, Event, EventBus, PartialReport, StreamConfig, StreamSink, VecSink};

use crate::arbiter::{fair_shares, ArbiterConfig, JobDemand};
use crate::error::FleetError;
use crate::job::JobSpec;
use crate::policy::ProvisionPolicy;
use crate::wal::{FleetWal, FleetWalRecord, JobWalView};

/// A fleet: the jobs, how capacity is sourced, and how it is arbitrated.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The jobs sharing the market, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Where GPUs may come from.
    pub policy: ProvisionPolicy,
    /// Arbiter tuning.
    pub arbiter: ArbiterConfig,
    /// The plan oracle every job's manager uses (analytic by default).
    pub oracle: Oracle,
}

impl FleetConfig {
    /// A fleet over `jobs` with default arbitration, spot-with-fallback
    /// provisioning, and the analytic plan oracle.
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        FleetConfig {
            jobs,
            policy: ProvisionPolicy::SpotWithFallback,
            arbiter: ArbiterConfig::default_tuning(),
            oracle: Oracle::Analytic,
        }
    }

    /// Replaces the provisioning policy.
    pub fn with_policy(mut self, policy: ProvisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the arbiter tuning.
    pub fn with_arbiter(mut self, arbiter: ArbiterConfig) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Replaces the plan oracle.
    pub fn with_oracle(mut self, oracle: Oracle) -> Self {
        self.oracle = oracle;
        self
    }

    fn validate(&self) -> Result<(), FleetError> {
        if self.jobs.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "a fleet needs at least one job".to_string(),
            });
        }
        let mut names = std::collections::BTreeSet::new();
        for j in &self.jobs {
            j.validate()?;
            if !names.insert(j.name.clone()) {
                return Err(FleetError::InvalidConfig {
                    reason: format!("duplicate job name `{}`", j.name),
                });
            }
        }
        Ok(())
    }
}

/// One job's share of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// Training examples processed.
    pub examples: f64,
    /// Tokens processed (`examples * seq_len`).
    pub tokens: f64,
    /// GPU-hours billed at the spot rate.
    pub spot_gpu_hours: f64,
    /// GPU-hours billed at the dedicated (on-demand) rate.
    pub on_demand_gpu_hours: f64,
    /// Total spend.
    pub dollars: f64,
    /// Reconfigurations the job's manager performed.
    pub morphs: usize,
    /// Preemption episodes the job suffered (market + arbiter).
    pub preemptions: usize,
    /// Hours spent in [`ManagerState::Degraded`].
    pub degraded_hours: f64,
    /// Manager events the job emitted.
    pub events: usize,
    /// FNV digest of the job's manager event stream.
    pub digest: u64,
}

/// Aggregate result of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Per-job outcomes, in submission order.
    pub per_job: Vec<JobOutcome>,
    /// Trace duration, hours.
    pub duration_hours: f64,
    /// Total spend across the fleet.
    pub dollars: f64,
    /// Total examples across the fleet.
    pub examples: f64,
    /// Total tokens across the fleet.
    pub tokens: f64,
    /// Aggregate cost efficiency, dollars per thousand tokens
    /// (infinite when the fleet made no progress).
    pub dollars_per_ktoken: f64,
    /// Aggregate goodput, tokens per hour of trace time.
    pub goodput_tokens_per_hour: f64,
    /// Jain fairness index over weight-normalized per-job examples
    /// (1.0 = perfectly weighted-fair).
    pub jain_fairness: f64,
    /// Rounds where leases broke a capacity invariant: more GPUs leased
    /// than the market holds, lease-book conservation lost, or a lease
    /// grant refused. Must be 0.
    pub capacity_violations: usize,
    /// Fair-share violations: an arbiter revocation that hit a job at or
    /// below its entitlement, or a job left above its entitlement after
    /// reconciliation. Must be 0.
    pub fairness_violations: usize,
    /// Fleet-level events emitted (allocations, preemptions, fallbacks).
    pub fleet_events: usize,
    /// Peak instantaneous market capacity observed, GPUs.
    pub peak_market_gpus: usize,
    /// Combined digest: the fleet event stream folded with every job's
    /// stream digest in job order. Same config + trace ⇒ same digest.
    pub digest: u64,
}

/// A fleet run with its full event streams, for tests and exporters.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Aggregate and per-job results.
    pub outcome: FleetOutcome,
    /// The fleet-level event stream (allocation / preemption / fallback).
    pub fleet_events: Vec<Event>,
    /// Each job's manager event stream, in submission order.
    pub job_events: Vec<Vec<Event>>,
    /// Per-bus live-stream-vs-capture accounting checks.
    pub stream: FleetStreamCheck,
}

/// Result of folding one bus's events through the streaming profiler
/// while the run was live, then comparing its sealed report against
/// `profile()` of the captured stream.
///
/// `profile()` is the same engine sealed once, so a match checks bus
/// delivery (the live sink saw every captured event, in order) and zero
/// violations checks that the live fold flagged no anomaly.
///
/// Each bus carries one logical event lane (one manager, or the fleet
/// control plane), so every per-bus report is exact; cross-bus partials
/// are intentionally *not* merged here — separate jobs are separate
/// timelines, and merging them would sum unrelated makespans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheck {
    /// Whether the live report equals `profile()` of the capture
    /// byte-for-byte.
    pub matches_posthoc: bool,
    /// `StreamCounters::violations()` for the live fold. Must be 0.
    pub violations: usize,
    /// Peak resident entries the streaming profiler held.
    pub peak_resident: usize,
    /// Events the live fold observed.
    pub events: usize,
}

/// The fleet bus check plus one check per job bus, in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStreamCheck {
    /// The fleet control-plane bus.
    pub fleet: StreamCheck,
    /// Each job manager's bus.
    pub jobs: Vec<StreamCheck>,
}

impl FleetStreamCheck {
    /// True when every bus streamed cleanly: byte-identical reports and
    /// zero accounting violations everywhere.
    pub fn all_clean(&self) -> bool {
        std::iter::once(&self.fleet)
            .chain(self.jobs.iter())
            .all(|c| c.matches_posthoc && c.violations == 0)
    }
}

/// Seals a live partial and scores it against `profile()` of the captured
/// event stream.
fn check_stream(partial: PartialReport, events: &[Event]) -> StreamCheck {
    let violations = partial.counters().violations();
    let peak_resident = partial.counters().peak_resident;
    let seen = partial.events();
    let matches = partial.into_report().to_json() == profile(events).to_json();
    StreamCheck {
        matches_posthoc: matches,
        violations,
        peak_resident,
        events: seen,
    }
}

/// Per-job mutable loop state.
struct JobState {
    od: usize,
    step_f: f64,
    examples: f64,
    spot_gpu_hours: f64,
    od_gpu_hours: f64,
    degraded_hours: f64,
    starved_since: Option<f64>,
    morphs: usize,
    preemptions: usize,
    last_total: Option<usize>,
    last_emitted: Option<(usize, usize)>,
}

impl JobState {
    fn new() -> Self {
        JobState {
            od: 0,
            step_f: 0.0,
            examples: 0.0,
            spot_gpu_hours: 0.0,
            od_gpu_hours: 0.0,
            degraded_hours: 0.0,
            starved_since: None,
            morphs: 0,
            preemptions: 0,
            last_total: None,
            last_emitted: None,
        }
    }
}

/// Invariant witnesses accumulated across rounds.
#[derive(Default)]
struct Counters {
    capacity_violations: usize,
    fairness_violations: usize,
    peak_market_gpus: usize,
}

/// Progress between arbitration rounds: hold-and-pay for every held GPU
/// (leased spot and provisioned on-demand alike), train at the planned
/// mini-batch rate while Running, accrue downtime while Degraded.
fn advance_progress(
    from: f64,
    to: f64,
    cfg: &FleetConfig,
    st: &mut [JobState],
    mgrs: &[Manager<'_>],
    book: &LeaseBook,
) {
    let dt = to - from;
    if dt <= 0.0 {
        return;
    }
    for (j, s) in st.iter_mut().enumerate() {
        s.spot_gpu_hours += book.job_gpus(j as u64) as f64 * dt;
        s.od_gpu_hours += s.od as f64 * dt;
        match mgrs[j].state() {
            ManagerState::Running => {
                if let Some(c) = mgrs[j].current_config() {
                    let steps = dt * 3600.0 / c.est_minibatch_time;
                    s.step_f += steps;
                    s.examples += steps * cfg.jobs[j].m_total as f64;
                }
            }
            ManagerState::Degraded => s.degraded_hours += dt,
        }
    }
}

/// Replays or logs one fleet decision at `t` hours ([`varuna::Wal::step`]:
/// a pending record must be the one `site` expects, logged at `t`), then
/// emits its event.
fn decide(
    wal: &mut FleetWal,
    bus: &mut EventBus,
    t: f64,
    site: impl FnOnce(&FleetWalRecord) -> bool,
    live: impl FnOnce() -> FleetWalRecord,
) -> Result<(), FleetError> {
    if let Some(event) = wal.step(|r| r.t_hours() == t && site(r), live)?.event() {
        bus.emit(event);
    }
    Ok(())
}

/// One arbitration round at `t` hours: entitlements, lease
/// reconciliation, fallback provisioning, manager driving, invariants.
#[allow(clippy::too_many_arguments)]
fn arbitrate_round(
    t: f64,
    cfg: &FleetConfig,
    st: &mut [JobState],
    mgrs: &mut [Manager<'_>],
    book: &mut LeaseBook,
    fleet_bus: &mut EventBus,
    job_buses: &mut [EventBus],
    counters: &mut Counters,
    wal: &mut FleetWal,
) -> Result<(), FleetError> {
    let n = cfg.jobs.len();
    let capacity = book.capacity_gpus();
    counters.peak_market_gpus = counters.peak_market_gpus.max(capacity);

    let bound = cfg.arbiter.starvation_bound_hours;
    let boosted: Vec<bool> = st
        .iter()
        .zip(cfg.jobs.iter())
        .map(|(s, j)| j.floor_gpus > 0 && s.starved_since.is_some_and(|since| t - since >= bound))
        .collect();

    // Spot entitlements from the arbiter (none under on-demand-only).
    let targets: Vec<usize> = if cfg.policy == ProvisionPolicy::OnDemandOnly {
        vec![0; n]
    } else {
        let demands: Vec<JobDemand> = cfg
            .jobs
            .iter()
            .zip(boosted.iter())
            .map(|(j, &b)| JobDemand {
                weight: j.weight,
                demand: j.demand_gpus,
                floor: j.floor_gpus,
                boosted: b,
            })
            .collect();
        fair_shares(capacity, &demands)
    };
    let boost_active = cfg.policy != ProvisionPolicy::OnDemandOnly && boosted.iter().any(|&b| b);

    // Reconcile leases down, newest VM first, recording every revocation
    // as (job, held-before, entitlement) so the fairness invariant is
    // checked on what actually happened rather than assumed.
    let mut revocations: Vec<(usize, usize, usize)> = Vec::new();
    for j in 0..n {
        let job = j as u64;
        let before = book.job_gpus(job);
        if before <= targets[j] {
            continue;
        }
        let mut revoked = 0usize;
        let mut vms = book.job_vms(job);
        while book.job_gpus(job) > targets[j] {
            let Some(vm) = vms.pop() else { break };
            revoked += book.release(vm).map_or(0, |(_, gpus)| gpus);
        }
        if revoked > 0 {
            revocations.push((j, before, targets[j]));
            st[j].preemptions += 1;
            let reason = if boost_active {
                "starvation_boost"
            } else {
                "fair_share"
            };
            decide(
                wal,
                fleet_bus,
                t,
                |r| matches!(r, FleetWalRecord::Preempted { job: rj, .. } if *rj == job),
                || FleetWalRecord::Preempted {
                    t_hours: t,
                    job,
                    gpus_revoked: revoked,
                    reason: reason.to_string(),
                },
            )?;
        }
    }
    // Preemption-of-the-preemptible: only jobs strictly above their
    // entitlement may lose capacity to the arbiter.
    counters.fairness_violations += revocations
        .iter()
        .filter(|(_, before, target)| before <= target)
        .count();

    // Reconcile leases up: free VMs (ascending id) to jobs below their
    // entitlement, never leasing past it.
    let free = book.free_vms();
    let mut fi = 0usize;
    for (j, &target) in targets.iter().enumerate() {
        let job = j as u64;
        while book.job_gpus(job) < target && fi < free.len() {
            let (vm, gpus) = free[fi];
            if book.job_gpus(job) + gpus > target {
                break;
            }
            if book.lease(vm, job).is_err() {
                counters.capacity_violations += 1;
            }
            fi += 1;
        }
        if book.job_gpus(job) > target {
            counters.fairness_violations += 1;
        }
    }

    // Provisioning + manager driving, job by job.
    for j in 0..n {
        let spot = book.job_gpus(j as u64);
        let od = match cfg.policy {
            ProvisionPolicy::SpotOnly => 0,
            ProvisionPolicy::OnDemandOnly => cfg.jobs[j].demand_gpus,
            ProvisionPolicy::SpotWithFallback => cfg.jobs[j].floor_gpus.saturating_sub(spot),
        };
        if od > st[j].od {
            let added = od - st[j].od;
            let job = j as u64;
            decide(
                wal,
                fleet_bus,
                t,
                |r| matches!(r, FleetWalRecord::Fallback { job: rj, .. } if *rj == job),
                || FleetWalRecord::Fallback {
                    t_hours: t,
                    job,
                    gpus: added,
                    total_on_demand: od,
                },
            )?;
        }
        st[j].od = od;

        // Drive the job's manager whenever its capacity changed, and keep
        // retrying while it is degraded (the arbiter round doubles as the
        // retry tick).
        let total = spot + od;
        if st[j].last_total != Some(total) || mgrs[j].state() == ManagerState::Degraded {
            let step = st[j].step_f as u64;
            let durable = step - mgrs[j].checkpoint_policy().lost_minibatches(step);
            let mut view = JobWalView {
                wal,
                job: j as u64,
                t_hours: t,
            };
            if let Some(d) = mgrs[j].on_external_capacity_walled(
                t,
                total,
                step,
                durable,
                &mut job_buses[j],
                &mut view,
            ) {
                if d.reconfigured {
                    st[j].morphs += 1;
                }
            }
            wal.check()?;
            st[j].last_total = Some(total);
        }

        // Starvation clock: below the floor starts (or continues) an
        // episode; at or above it clears.
        if cfg.jobs[j].floor_gpus > 0 && total < cfg.jobs[j].floor_gpus {
            st[j].starved_since.get_or_insert(t);
        } else {
            st[j].starved_since = None;
        }

        if st[j].last_emitted != Some((spot, od)) {
            let job = j as u64;
            decide(
                wal,
                fleet_bus,
                t,
                |r| matches!(r, FleetWalRecord::Allocation { job: rj, .. } if *rj == job),
                || FleetWalRecord::Allocation {
                    t_hours: t,
                    job,
                    spot_gpus: spot,
                    on_demand_gpus: od,
                    market_gpus: capacity,
                },
            )?;
            st[j].last_emitted = Some((spot, od));
        }
    }

    // Capacity invariants, every round.
    if book.check_conservation().is_err() {
        counters.capacity_violations += 1;
    }
    Ok(())
}

/// Runs the fleet over a shared market trace and returns the aggregate
/// outcome. See [`run_fleet_traced`] to also get the event streams.
pub fn run_fleet(cfg: &FleetConfig, market: &ClusterTrace) -> Result<FleetOutcome, FleetError> {
    run_fleet_traced(cfg, market).map(|r| r.outcome)
}

/// Runs the fleet over a shared market trace, keeping the fleet-level
/// and per-job event streams.
///
/// Equivalent to [`run_fleet_walled`] with a fresh write-ahead log that
/// is discarded afterwards; use the walled variant to keep the log for
/// crash recovery.
pub fn run_fleet_traced(cfg: &FleetConfig, market: &ClusterTrace) -> Result<FleetRun, FleetError> {
    run_fleet_walled(cfg, market, &mut FleetWal::new())
}

/// Recovers a killed fleet run from its write-ahead log.
///
/// `wal` is the log as decoded by [`FleetWal::from_bytes`] (a possibly
/// torn tail already truncated at the last clean frame boundary). The
/// market trace is re-run from the start with every logged decision —
/// fleet allocations and per-job plan attempts alike — *replayed* rather
/// than recomputed; once the log is exhausted the run continues live,
/// appending to the same log. A `RecoveryReplay` event on the fleet
/// stream prices the replay as downtime.
///
/// # Errors
///
/// Same contract as [`run_fleet_traced`].
pub fn recover_fleet(
    cfg: &FleetConfig,
    market: &ClusterTrace,
    wal: &mut FleetWal,
) -> Result<(FleetRun, RecoveryReport), FleetError> {
    let report = wal.recovery_report();
    let run = run_fleet_walled(cfg, market, wal)?;
    Ok((run, report))
}

/// Runs the fleet through a write-ahead log: every fleet control decision
/// (allocation, preemption, fallback) and every job manager's
/// plan-attempt record is logged to one shared sequence *before* its
/// event is emitted, and pending records (crash recovery) replay instead
/// of recomputing. A fresh log makes this identical to
/// [`run_fleet_traced`].
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] for an empty fleet or duplicate
/// job names, and [`FleetError::Wal`] when pending records do not match
/// the decisions the loop replays them at (a log from another run).
pub fn run_fleet_walled(
    cfg: &FleetConfig,
    market: &ClusterTrace,
    wal: &mut FleetWal,
) -> Result<FleetRun, FleetError> {
    cfg.validate()?;
    let n = cfg.jobs.len();

    // Each job calibrates against a cluster sized to its own demand; the
    // calibration is scale-invariant (paper §4.3) so the size only
    // bounds the planner's search space.
    let calibs: Vec<Calibration> = cfg
        .jobs
        .iter()
        .map(|j| Calibration::profile(&j.model, &VarunaCluster::commodity_1gpu(j.demand_gpus)))
        .collect();
    // One analytic plan cache for the whole fleet: its key covers every
    // plan input, so a level one job planned is a hit for every job with
    // the same calibration and batch contract.
    let plans = PlanCache::new();
    let mut mgrs: Vec<Manager<'_>> = calibs
        .iter()
        .zip(cfg.jobs.iter())
        .map(|(c, j)| {
            Manager::new(c, j.m_total, j.micro)
                .with_fallback()
                .with_oracle(cfg.oracle.clone())
                .with_plan_cache(plans.clone())
        })
        .collect();

    let fleet_sink = VecSink::new();
    let fleet_stream = StreamSink::new(StreamConfig::default());
    let mut fleet_bus = EventBus::with_sink(Box::new(fleet_sink.clone()));
    fleet_bus.add_sink(Box::new(fleet_stream.clone()));
    let job_sinks: Vec<VecSink> = (0..n).map(|_| VecSink::new()).collect();
    let job_streams: Vec<StreamSink> = (0..n)
        .map(|_| StreamSink::new(StreamConfig::default()))
        .collect();
    let mut job_buses: Vec<EventBus> = job_sinks
        .iter()
        .zip(job_streams.iter())
        .map(|(s, live)| {
            let mut bus = EventBus::with_sink(Box::new(s.clone()));
            bus.add_sink(Box::new(live.clone()));
            bus
        })
        .collect();

    let mut st: Vec<JobState> = (0..n).map(|_| JobState::new()).collect();
    let mut book = LeaseBook::new();
    let mut counters = Counters::default();

    // A pending log means this run is a recovery: announce (and price)
    // the replay before re-driving the loop.
    wal.announce_recovery(&mut fleet_bus, FleetWalRecord::t_hours);

    // Bootstrap round: on-demand fleets provision before any market
    // event, and an empty market parks every spot job as degraded.
    arbitrate_round(
        0.0,
        cfg,
        &mut st,
        &mut mgrs,
        &mut book,
        &mut fleet_bus,
        &mut job_buses,
        &mut counters,
        wal,
    )?;

    let mut t_prev = 0.0f64;
    let evs = &market.events;
    let mut i = 0usize;
    while i < evs.len() {
        let t = evs[i].time_hours;
        advance_progress(t_prev, t, cfg, &mut st, &mgrs, &book);
        // Apply every market event in this batch (same timestamp), then
        // arbitrate once.
        while i < evs.len() && evs[i].time_hours == t {
            let e = &evs[i];
            match e.kind {
                ClusterEventKind::Granted { gpus } => {
                    // A double or zero-GPU grant is not capacity the
                    // fleet can lease; the book refuses it unchanged.
                    let _ = book.grant(e.vm, gpus);
                }
                ClusterEventKind::Preempted => {
                    if let Some(LeaseEntry {
                        gpus: revoked,
                        holder: Some(job),
                    }) = book.preempt(e.vm)
                    {
                        st[job as usize].preemptions += 1;
                        decide(
                            wal,
                            &mut fleet_bus,
                            t,
                            |r| matches!(r, FleetWalRecord::Preempted { job: rj, .. } if *rj == job),
                            || FleetWalRecord::Preempted {
                                t_hours: t,
                                job,
                                gpus_revoked: revoked,
                                reason: "market".to_string(),
                            },
                        )?;
                    }
                }
                // Per-VM health events (stutter, silence, storage) are
                // single-job concerns; the fleet layer arbitrates raw
                // capacity only.
                _ => {}
            }
            i += 1;
        }
        arbitrate_round(
            t,
            cfg,
            &mut st,
            &mut mgrs,
            &mut book,
            &mut fleet_bus,
            &mut job_buses,
            &mut counters,
            wal,
        )?;
        t_prev = t;
    }
    advance_progress(t_prev, market.duration_hours, cfg, &mut st, &mgrs, &book);

    fleet_bus.flush();
    for b in &mut job_buses {
        b.flush();
    }
    let fleet_events = fleet_sink.take();
    let job_events: Vec<Vec<Event>> = job_sinks.iter().map(|s| s.take()).collect();

    let sku = VmSku::nc6_v3();
    let spot_rate = sku.spot_price_per_gpu_hour();
    let od_rate = sku.dedicated_price_per_gpu_hour();

    let per_job: Vec<JobOutcome> = cfg
        .jobs
        .iter()
        .zip(st.iter())
        .zip(job_events.iter())
        .map(|((j, s), ev)| JobOutcome {
            name: j.name.clone(),
            examples: s.examples,
            tokens: s.examples * j.model.seq_len as f64,
            spot_gpu_hours: s.spot_gpu_hours,
            on_demand_gpu_hours: s.od_gpu_hours,
            dollars: s.spot_gpu_hours * spot_rate + s.od_gpu_hours * od_rate,
            morphs: s.morphs,
            preemptions: s.preemptions,
            degraded_hours: s.degraded_hours,
            events: ev.len(),
            digest: digest_events(ev),
        })
        .collect();

    let dollars: f64 = per_job.iter().map(|j| j.dollars).sum();
    let tokens: f64 = per_job.iter().map(|j| j.tokens).sum();
    let examples: f64 = per_job.iter().map(|j| j.examples).sum();

    // Jain index over weight-normalized progress: 1.0 when every job got
    // exactly its weighted share of useful work.
    let shares: Vec<f64> = per_job
        .iter()
        .zip(cfg.jobs.iter())
        .map(|(o, j)| o.examples / j.weight)
        .collect();
    let sum: f64 = shares.iter().sum();
    let sumsq: f64 = shares.iter().map(|x| x * x).sum();
    let jain = if sum > 0.0 {
        (sum * sum) / (shares.len() as f64 * sumsq)
    } else {
        1.0
    };

    // Fold per-job stream digests into the fleet stream digest (FNV
    // combine, job order) so one u64 certifies the whole run. Recovery
    // replay announcements are excluded so a kill-and-recover run can be
    // compared digest-for-digest against its uninterrupted twin.
    let mut digest = digest_control_events(&fleet_events);
    for o in &per_job {
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3) ^ o.digest;
    }

    let outcome = FleetOutcome {
        duration_hours: market.duration_hours,
        dollars,
        examples,
        tokens,
        dollars_per_ktoken: if tokens > 0.0 {
            dollars / (tokens / 1000.0)
        } else {
            f64::INFINITY
        },
        goodput_tokens_per_hour: if market.duration_hours > 0.0 {
            tokens / market.duration_hours
        } else {
            0.0
        },
        jain_fairness: jain,
        capacity_violations: counters.capacity_violations,
        fairness_violations: counters.fairness_violations,
        fleet_events: fleet_events.len(),
        peak_market_gpus: counters.peak_market_gpus,
        digest,
        per_job,
    };
    let stream = FleetStreamCheck {
        fleet: check_stream(fleet_stream.take_partial(), &fleet_events),
        jobs: job_streams
            .iter()
            .zip(job_events.iter())
            .map(|(live, ev)| check_stream(live.take_partial(), ev))
            .collect(),
    };
    Ok(FleetRun {
        outcome,
        fleet_events,
        job_events,
        stream,
    })
}

#[cfg(test)]
mod tests {
    use varuna::{WalError, WalRecord};
    use varuna_cluster::trace::{ClusterEvent, ClusterEventKind, ClusterTrace};
    use varuna_models::ModelZoo;
    use varuna_obs::EventKind;

    use super::*;

    fn small_job(name: &str, weight: f64, demand: usize, floor: usize) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            model: ModelZoo::gpt2_355m(),
            m_total: 512,
            micro: 4,
            weight,
            demand_gpus: demand,
            floor_gpus: floor,
        }
    }

    /// A scripted market: `vms` one-GPU grants at t=0, held for the whole
    /// trace.
    fn steady_market(vms: u64, hours: f64) -> ClusterTrace {
        ClusterTrace {
            events: (0..vms)
                .map(|vm| ClusterEvent {
                    time_hours: 0.0,
                    vm,
                    kind: ClusterEventKind::Granted { gpus: 1 },
                })
                .collect(),
            duration_hours: hours,
        }
    }

    #[test]
    fn two_jobs_split_a_steady_market_fairly() {
        let cfg = FleetConfig::new(vec![small_job("a", 1.0, 8, 2), small_job("b", 1.0, 8, 2)])
            .with_policy(ProvisionPolicy::SpotOnly);
        let run = run_fleet_traced(&cfg, &steady_market(8, 2.0)).unwrap();
        let o = &run.outcome;
        assert_eq!(o.capacity_violations, 0);
        assert_eq!(o.fairness_violations, 0);
        assert_eq!(o.peak_market_gpus, 8);
        // Both jobs run 4 GPUs for 2 hours, no on-demand.
        for j in &o.per_job {
            assert!(
                (j.spot_gpu_hours - 8.0).abs() < 1e-9,
                "{}",
                j.spot_gpu_hours
            );
            assert_eq!(j.on_demand_gpu_hours, 0.0);
            assert!(j.examples > 0.0, "job should make progress");
        }
        assert!((o.jain_fairness - 1.0).abs() < 1e-6);
        assert!(o.dollars_per_ktoken.is_finite());
        // Allocation events were emitted for both jobs.
        assert!(run
            .fleet_events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FleetAllocation { .. })));
    }

    #[test]
    fn market_preemption_revokes_and_the_arbiter_rebalances() {
        let mut market = steady_market(8, 2.0);
        // At t=1h the market takes 4 VMs back.
        for vm in 0..4 {
            market.events.push(ClusterEvent {
                time_hours: 1.0,
                vm,
                kind: ClusterEventKind::Preempted,
            });
        }
        let cfg = FleetConfig::new(vec![small_job("a", 1.0, 8, 1), small_job("b", 1.0, 8, 1)])
            .with_policy(ProvisionPolicy::SpotOnly);
        let run = run_fleet_traced(&cfg, &market).unwrap();
        let o = &run.outcome;
        assert_eq!(o.capacity_violations, 0);
        assert_eq!(o.fairness_violations, 0);
        // 8 GPU-hours in hour one, 4 in hour two, split evenly.
        let held: f64 = o.per_job.iter().map(|j| j.spot_gpu_hours).sum();
        assert!((held - 12.0).abs() < 1e-9, "{held}");
        assert!(run.fleet_events.iter().any(|e| matches!(
            &e.kind,
            EventKind::JobPreempted { reason, .. } if reason == "market"
        )));
    }

    #[test]
    fn fallback_tops_up_to_the_floor_when_the_market_is_empty() {
        let market = ClusterTrace {
            events: Vec::new(),
            duration_hours: 1.0,
        };
        let cfg = FleetConfig::new(vec![small_job("a", 1.0, 8, 4)]);
        let run = run_fleet_traced(&cfg, &market).unwrap();
        let o = &run.outcome;
        let j = &o.per_job[0];
        assert_eq!(j.spot_gpu_hours, 0.0);
        assert!((j.on_demand_gpu_hours - 4.0).abs() < 1e-9);
        assert!(j.examples > 0.0, "the floor keeps the job alive");
        assert!(run.fleet_events.iter().any(|e| matches!(
            e.kind,
            EventKind::FallbackProvisioned {
                gpus: 4,
                total_on_demand: 4,
                ..
            }
        )));
    }

    #[test]
    fn on_demand_only_ignores_the_market_and_pays_dedicated_rates() {
        let cfg = FleetConfig::new(vec![small_job("a", 1.0, 4, 1)])
            .with_policy(ProvisionPolicy::OnDemandOnly);
        let run = run_fleet_traced(&cfg, &steady_market(8, 1.0)).unwrap();
        let j = &run.outcome.per_job[0];
        assert_eq!(j.spot_gpu_hours, 0.0);
        assert!((j.on_demand_gpu_hours - 4.0).abs() < 1e-9);
        let od_rate = VmSku::nc6_v3().dedicated_price_per_gpu_hour();
        assert!((j.dollars - 4.0 * od_rate).abs() < 1e-9);
    }

    #[test]
    fn same_config_and_trace_is_byte_identical() {
        let market = ClusterTrace::generate_spot_1gpu(12, 12, 2.0, 15.0, 11);
        let cfg = FleetConfig::new(vec![
            small_job("a", 2.0, 8, 2),
            small_job("b", 1.0, 6, 2),
            small_job("c", 1.0, 6, 0),
        ]);
        let a = run_fleet_traced(&cfg, &market).unwrap();
        let b = run_fleet_traced(&cfg, &market).unwrap();
        assert_eq!(a.outcome.digest, b.outcome.digest);
        assert_eq!(a.fleet_events, b.fleet_events);
        assert_eq!(a.job_events, b.job_events);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn every_bus_streams_byte_identical_to_posthoc_under_churn() {
        let market = ClusterTrace::generate_spot_1gpu(12, 12, 2.0, 15.0, 11);
        let cfg = FleetConfig::new(vec![
            small_job("a", 2.0, 8, 2),
            small_job("b", 1.0, 6, 2),
            small_job("c", 1.0, 6, 0),
        ]);
        let run = run_fleet_traced(&cfg, &market).unwrap();
        assert!(
            run.stream.all_clean(),
            "live streamed accounting diverged: {:?}",
            run.stream
        );
        assert_eq!(run.stream.jobs.len(), 3);
        assert_eq!(run.stream.fleet.events, run.fleet_events.len());
        for (check, events) in run.stream.jobs.iter().zip(run.job_events.iter()) {
            assert_eq!(check.events, events.len());
            // Control-plane streams fold as they arrive: resident state
            // stays far below the stream length.
            assert!(
                check.peak_resident <= events.len(),
                "resident {} vs {} events",
                check.peak_resident,
                events.len()
            );
        }
    }

    /// A fleet log rebuilt from `records` and reloaded, as recovery sees it.
    fn reloaded(records: &[FleetWalRecord]) -> FleetWal {
        let mut wal = FleetWal::new();
        for r in records {
            wal.append(r.clone());
        }
        FleetWal::from_bytes(&wal.to_bytes()).unwrap()
    }

    #[test]
    fn a_log_from_another_run_is_a_typed_divergence() {
        let market = steady_market(8, 2.0);
        let cfg = FleetConfig::new(vec![small_job("a", 1.0, 8, 2), small_job("b", 1.0, 8, 2)]);
        let mut wal = FleetWal::new();
        run_fleet_walled(&cfg, &market, &mut wal).unwrap();
        let diverged = |records: &[FleetWalRecord]| {
            recover_fleet(&cfg, &market, &mut reloaded(records)).unwrap_err()
        };

        // A foreign job's allocation ahead of the run's own first decision.
        let foreign = FleetWalRecord::Allocation {
            t_hours: 0.0,
            job: 9,
            spot_gpus: 4,
            on_demand_gpus: 0,
            market_gpus: 8,
        };
        assert_eq!(
            diverged(&[foreign]),
            FleetError::Wal(WalError::Diverged { seq: 0 })
        );

        // The run's own log with one fleet decision, then one job's
        // morph, moved half an hour later.
        let k = wal
            .records()
            .iter()
            .rposition(|r| !matches!(r, FleetWalRecord::Job { .. }))
            .expect("a fleet decision");
        let mut moved = wal.records().to_vec();
        if let FleetWalRecord::Allocation { t_hours, .. }
        | FleetWalRecord::Preempted { t_hours, .. }
        | FleetWalRecord::Fallback { t_hours, .. } = &mut moved[k]
        {
            *t_hours += 0.5;
        }
        assert_eq!(
            diverged(&moved),
            FleetError::Wal(WalError::Diverged { seq: k as u64 })
        );
        let m = wal
            .records()
            .iter()
            .position(|r| {
                matches!(
                    r,
                    FleetWalRecord::Job {
                        rec: WalRecord::Morph { .. },
                        ..
                    }
                )
            })
            .expect("a job morph");
        let mut moved = wal.records().to_vec();
        if let FleetWalRecord::Job {
            rec: WalRecord::Morph { t_hours, .. },
            ..
        } = &mut moved[m]
        {
            *t_hours += 0.5;
        }
        assert_eq!(
            diverged(&moved),
            FleetError::Wal(WalError::Diverged { seq: m as u64 })
        );
    }

    #[test]
    fn rejects_empty_and_duplicate_fleets() {
        assert!(run_fleet(&FleetConfig::new(Vec::new()), &steady_market(1, 1.0)).is_err());
        let cfg = FleetConfig::new(vec![small_job("a", 1.0, 4, 0), small_job("a", 1.0, 4, 0)]);
        assert!(run_fleet(&cfg, &steady_market(1, 1.0)).is_err());
    }
}
