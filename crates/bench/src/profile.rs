//! Profiler smoke: pins the time-attribution pipeline against closed-form
//! pipeline analytics.
//!
//! On a uniform, jitter-free 4-stage pipeline with negligible network
//! time, both GPipe and Varuna's 1F1B-style schedule have the classic
//! bubble fraction `(p - 1) / (m + p - 1)`: every lane is busy
//! `m (F + B)` seconds out of a `(m + p - 1)(F + B)` makespan. The smoke
//! runs both schedules through the emulator, profiles the captured event
//! stream, and checks (a) the profiled bubble fraction against the
//! formula and (b) that each lane's compute + send + bubble decomposition
//! sums exactly to the makespan. This is the CI gate that keeps the
//! profiler's arithmetic honest.

use varuna_baselines::GPipePolicy;
use varuna_exec::job::{PlacedJob, StageSpec};
use varuna_exec::pipeline::{simulate_minibatch_on_bus, SimOptions};
use varuna_exec::placement::Placement;
use varuna_net::Topology;
use varuna_obs::{profile, BenchReport, EventBus, ProfileReport, VecSink};
use varuna_sched::policy::SchedulePolicy;
use varuna_sched::schedule::{generate_schedule, VarunaPolicy};

/// Pipeline depth of the smoke workload.
pub const P: usize = 4;
/// Micro-batches per replica of the smoke workload.
pub const N_MICRO: usize = 16;
/// Forward time per micro-batch, seconds.
pub const FWD: f64 = 0.01;
/// Backward time per micro-batch, seconds.
pub const BWD: f64 = 0.02;
/// Allowed |profiled - analytic| bubble gap (absorbs the 3 us NVLink
/// hops the closed form ignores).
pub const BUBBLE_TOLERANCE: f64 = 0.02;

/// One schedule's profiled-vs-analytic outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Schedule name.
    pub schedule: &'static str,
    /// Bubble fraction the profiler measured.
    pub profiled_bubble: f64,
    /// `(p - 1) / (m + p - 1)`.
    pub analytic_bubble: f64,
    /// Largest per-lane |components - makespan| residual, seconds.
    pub max_lane_residual: f64,
    /// Profiled makespan, seconds.
    pub makespan: f64,
    /// The full report (kept for the binary's table output).
    pub report: ProfileReport,
}

impl Row {
    /// Whether this schedule passes both smoke checks.
    pub fn is_clean(&self) -> bool {
        (self.profiled_bubble - self.analytic_bubble).abs() <= BUBBLE_TOLERANCE
            && self.max_lane_residual <= 1e-9 * self.makespan.max(1.0)
    }
}

/// The smoke workload: `P` identical stages, one replica, no jitter, and
/// NVLink-class links so network time is negligible next to compute.
fn smoke_job() -> PlacedJob {
    // Recompute stays enabled (the static Varuna schedule issues R
    // slots) but costs zero, so every stage prices the uniform `F + B`
    // per micro-batch the closed form assumes.
    let stage = StageSpec {
        fwd_time: FWD,
        bwd_time: BWD,
        recompute_time: 0.0,
        act_bytes: 4096.0,
        grad_bytes: 0.0,
        params: 1_000_000,
        layers: 1,
        stash_window: usize::MAX,
    };
    PlacedJob {
        stages: vec![stage; P],
        d: 1,
        m: 4,
        n_micro: N_MICRO,
        topology: Topology::hypercluster(P),
        placement: Placement::one_stage_per_gpu(P, 1),
        shared_sync_bytes: 0.0,
        offload_bytes: None,
        stutter: Vec::new(),
    }
}

fn profiled(job: &PlacedJob, policy: &dyn Fn(usize, usize) -> Box<dyn SchedulePolicy>) -> Row {
    let opts = SimOptions {
        compute_jitter: 0.0,
        ..SimOptions::default()
    };
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    simulate_minibatch_on_bus(job, policy, &opts, &mut bus).expect("smoke job completes");
    let report = profile(&sink.take());
    let max_lane_residual = report
        .lanes
        .iter()
        .map(|l| (l.total() - report.makespan).abs())
        .fold(0.0f64, f64::max);
    Row {
        schedule: "",
        profiled_bubble: report.bubble_fraction,
        analytic_bubble: (P - 1) as f64 / (N_MICRO + P - 1) as f64,
        max_lane_residual,
        makespan: report.makespan,
        report,
    }
}

/// Runs the smoke on both schedules.
pub fn run() -> Vec<Row> {
    let job = smoke_job();
    let sched = generate_schedule(P, N_MICRO, usize::MAX);
    let mut varuna = profiled(&job, &move |s, _| -> Box<dyn SchedulePolicy> {
        Box::new(VarunaPolicy::for_stage(&sched, s))
    });
    varuna.schedule = "varuna-1f1b";
    let mut gpipe = profiled(&job, &|_, _| -> Box<dyn SchedulePolicy> {
        Box::new(GPipePolicy)
    });
    gpipe.schedule = "gpipe";
    vec![varuna, gpipe]
}

/// Packages the smoke as a [`BenchReport`] (`BENCH_profile.json`).
pub fn report(rows: &[Row]) -> BenchReport {
    let mut rep = BenchReport::new("profile_smoke")
        .param("p", P as f64)
        .param("n_micro", N_MICRO as f64)
        .param("fwd_seconds", FWD)
        .param("bwd_seconds", BWD)
        .param("bubble_tolerance", BUBBLE_TOLERANCE)
        .result("analytic_bubble", (P - 1) as f64 / (N_MICRO + P - 1) as f64);
    for r in rows {
        rep = rep
            .result(&format!("{}_bubble", r.schedule), r.profiled_bubble)
            .result(&format!("{}_makespan_s", r.schedule), r.makespan)
            .result(
                &format!("{}_max_lane_residual_s", r.schedule),
                r.max_lane_residual,
            );
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_schedules_match_the_analytic_bubble() {
        for r in run() {
            assert!(
                r.is_clean(),
                "{}: profiled {:.4} vs analytic {:.4}, residual {:.3e}",
                r.schedule,
                r.profiled_bubble,
                r.analytic_bubble,
                r.max_lane_residual
            );
        }
    }

    #[test]
    fn lanes_decompose_to_the_makespan_exactly() {
        for r in run() {
            assert_eq!(r.report.lanes.len(), P, "{}", r.schedule);
            assert!(
                r.max_lane_residual <= 1e-9 * r.makespan,
                "{}: residual {:.3e}",
                r.schedule,
                r.max_lane_residual
            );
            // No data parallelism, no blocking sends: the decomposition
            // is compute + bubble only.
            for lane in &r.report.lanes {
                assert_eq!(lane.allreduce, 0.0);
                assert_eq!(lane.send, 0.0);
            }
        }
    }

    #[test]
    fn the_report_is_well_formed() {
        let rows = run();
        let rep = report(&rows);
        assert!(rep.is_current_schema());
        assert!(rep.summary["analytic_bubble"] > 0.0);
        assert!(rep.summary["gpipe_bubble"] > 0.0);
        assert!(rep.summary["varuna-1f1b_bubble"] > 0.0);
    }
}
