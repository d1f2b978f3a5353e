//! Figure 7: Gantt chart of one Varuna mini-batch on the GPT-2 20B model
//! (49 stages x 6 replicas).

use std::sync::{Arc, Mutex};

use varuna::calibrate::Calibration;
use varuna::job::TrainingJob;
use varuna::planner::Planner;
use varuna::VarunaCluster;
use varuna_exec::pipeline::SimOptions;
use varuna_models::ModelZoo;
use varuna_obs::{profile, Event, EventBus, EventKind, EventSink, ProfileReport, ProfileSpan};

/// The Figure 7 result: the execution trace of one replica plus summary
/// timings.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Spans of replica 0 (all stages), derived from the profiler's span
    /// extraction over the captured event stream.
    pub trace: Vec<ProfileSpan>,
    /// Pipeline phase duration, seconds.
    pub pipeline_time: f64,
    /// End-to-end mini-batch time (including the allreduce region at the
    /// right of the chart), seconds.
    pub total_time: f64,
    /// Per-stage allreduce durations (the purple region).
    pub allreduce: Vec<f64>,
    /// Pipeline depth.
    pub p: usize,
    /// Time attribution of the captured (replica 0) stream: per-stage
    /// compute / transfer / allreduce / bubble decomposition, straggler
    /// scores, and the critical path.
    pub profile: ProfileReport,
}

/// A bus sink keeping only the events the Figure 7 chart needs: replica 0
/// op completions and transfers plus the per-stage allreduces. At 49x6 the
/// full event stream is ~6x larger; collecting one replica keeps the
/// chrome trace loadable.
#[derive(Debug, Clone, Default)]
struct Replica0Sink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl Replica0Sink {
    fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }
}

impl EventSink for Replica0Sink {
    fn record(&mut self, event: &Event) {
        let keep = match &event.kind {
            EventKind::OpEnd { replica, .. }
            | EventKind::Transfer { replica, .. }
            | EventKind::SendBusy { replica, .. } => *replica == 0,
            EventKind::Allreduce { .. } => true,
            _ => false,
        };
        if keep {
            self.events.lock().expect("sink lock").push(event.clone());
        }
    }
}

/// Runs one traced mini-batch of the 20B model at 49x6.
pub fn run() -> Fig7 {
    run_traced().0
}

/// Like [`run`], but also returns the replica 0 op/transfer/allreduce
/// events, ready for [`varuna_obs::chrome_trace_json`] or the
/// `varuna-profile` CLI.
pub fn run_traced() -> (Fig7, Vec<Event>) {
    let model = ModelZoo::gpt2_20b();
    let cluster = VarunaCluster::commodity_1gpu(294);
    let calib = Calibration::profile(&model, &cluster);
    let cfg = Planner::new(&model, &calib)
        .batch_size(8192)
        .micro_batch(4)
        .evaluate(49, 6)
        .expect("the paper's 49x6 20B configuration is feasible");
    let job = TrainingJob::build(&calib, &cluster, cfg).unwrap();
    let raw = Replica0Sink::default();
    let mut bus = EventBus::with_sink(Box::new(raw.clone()));
    let (res, _) = job
        .run_minibatch_on_bus(&SimOptions::default(), &mut bus)
        .unwrap();
    let events = raw.take();
    // The gantt trace and the time attribution both come from the same
    // captured stream; `profile::spans` keeps event-arrival order. The
    // sink already kept replica 0 only.
    let fig = Fig7 {
        trace: profile::spans(&events),
        pipeline_time: res.pipeline_time,
        total_time: res.total_time,
        allreduce: res.allreduce,
        p: 49,
        profile: profile(&events),
    };
    (fig, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gantt_has_the_papers_structure() {
        let r = run();
        // 49 stages all appear; every stage runs forwards and backwards.
        for s in 0..r.p {
            assert!(
                r.trace.iter().any(|t| t.stage == s && t.op == 'F'),
                "stage {s} missing forwards"
            );
            assert!(r.trace.iter().any(|t| t.stage == s && t.op == 'B'));
        }
        // The last stage never recomputes (the paper's schedule property).
        assert!(!r.trace.iter().any(|t| t.stage == r.p - 1 && t.op == 'R'));
        // The allreduce region exists and sits at the far right.
        assert!(r.allreduce.iter().all(|&a| a > 0.0));
        assert!(r.total_time > r.pipeline_time);
    }

    #[test]
    fn profile_attribution_matches_the_minibatch_summary() {
        let r = run();
        // The profiler's pipeline end is the last captured op completion.
        // The capture keeps replica 0 only, so it can land slightly before
        // the global (max-over-replicas, jittered) pipeline boundary — but
        // never after, and the six replicas jitter within a few percent.
        assert!(
            r.profile.pipeline_end <= r.pipeline_time + 1e-9,
            "pipeline_end {} vs pipeline_time {}",
            r.profile.pipeline_end,
            r.pipeline_time
        );
        assert!(
            r.profile.pipeline_end > 0.95 * r.pipeline_time,
            "pipeline_end {} vs pipeline_time {}",
            r.profile.pipeline_end,
            r.pipeline_time
        );
        // One lane per stage (replica 0 only), each decomposing exactly
        // to the makespan.
        assert_eq!(r.profile.lanes.len(), r.p);
        for lane in &r.profile.lanes {
            assert!(
                (lane.total() - r.profile.makespan).abs() < 1e-6 * r.profile.makespan,
                "stage {} lane decomposition leaks time",
                lane.stage
            );
        }
        // A 49-deep pipeline at this micro count has a real but bounded
        // bubble.
        assert!(r.profile.bubble_fraction > 0.0 && r.profile.bubble_fraction < 0.9);
        let cp = r.profile.critical_path.as_ref().expect("ops exist");
        assert!(cp.length <= r.profile.makespan + 1e-9);
        assert!(cp.bottleneck_stage < r.p);
    }
}
