//! Figure 4: Varuna's micro-batch schedule vs GPipe's (4 stages, 5
//! micro-batches), plus the jitter-sensitivity claim executed for real.

use varuna_baselines::{GPipePolicy, OneF1BPolicy, PipeDreamPolicy};
use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{render_unit_schedule, simulate_minibatch, SimOptions};
use varuna_exec::placement::Placement;
use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
use varuna_net::Topology;
use varuna_sched::policy::SchedulePolicy;
use varuna_sched::schedule::{generate_schedule, StaticSchedule, VarunaPolicy};

/// The Figure 4 result.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Varuna's offline schedule.
    pub varuna: StaticSchedule,
    /// GPipe's offline schedule.
    pub gpipe: StaticSchedule,
    /// Emulated pipeline time under jitter, Varuna, seconds.
    pub varuna_jitter_time: f64,
    /// Emulated pipeline time under jitter, GPipe, seconds.
    pub gpipe_jitter_time: f64,
}

/// Enumerates both schedules and executes both on the emulator with
/// Ethernet jitter (BERT-72, 4x16 micro-batches).
pub fn run() -> Fig4 {
    let varuna = generate_schedule(4, 5, usize::MAX);
    let gpipe = render_unit_schedule(4, 5, usize::MAX, true, &|_, _| Box::new(GPipePolicy))
        .expect("gpipe renders at unit times");

    let graph = CutpointGraph::from_transformer(&ModelZoo::bert_72());
    let job = PlacedJob::uniform_from_graph(
        &graph,
        &GpuModel::v100(),
        4,
        1,
        16,
        16,
        Topology::commodity_1gpu(4),
        Placement::one_stage_per_gpu(4, 1),
    );
    let sched = generate_schedule(4, 16, usize::MAX);
    let opts = SimOptions::default();
    let varuna_run = simulate_minibatch(
        &job,
        &move |s, _| -> Box<dyn SchedulePolicy> { Box::new(VarunaPolicy::for_stage(&sched, s)) },
        &opts,
    )
    .expect("varuna schedule executes");
    let gpipe_run = simulate_minibatch(&job, &|_, _| Box::new(GPipePolicy), &opts)
        .expect("gpipe schedule executes");

    Fig4 {
        varuna,
        gpipe,
        varuna_jitter_time: varuna_run.pipeline_time,
        gpipe_jitter_time: gpipe_run.pipeline_time,
    }
}

/// Emulated pipeline time for every discipline on the Figure 4 workload.
///
/// Runs Varuna, GPipe, 1F1B, and PipeDream through the same
/// [`varuna_sched::policy::SchedulePolicy`] interface on the
/// discrete-event emulator (BERT-72, 4 stages x 16 micro-batches over
/// commodity Ethernet). Used as the CI smoke: every discipline must
/// drive a full minibatch to completion through the scheduling crate.
pub fn smoke_all_disciplines() -> Vec<(&'static str, f64)> {
    let graph = CutpointGraph::from_transformer(&ModelZoo::bert_72());
    let job = PlacedJob::uniform_from_graph(
        &graph,
        &GpuModel::v100(),
        4,
        1,
        16,
        16,
        Topology::commodity_1gpu(4),
        Placement::one_stage_per_gpu(4, 1),
    );
    let opts = SimOptions::default();
    let sched = generate_schedule(4, 16, usize::MAX);
    let varuna = simulate_minibatch(
        &job,
        &move |s, _| -> Box<dyn SchedulePolicy> { Box::new(VarunaPolicy::for_stage(&sched, s)) },
        &opts,
    )
    .expect("varuna completes");
    let gpipe =
        simulate_minibatch(&job, &|_, _| Box::new(GPipePolicy), &opts).expect("gpipe completes");
    let onef1b =
        simulate_minibatch(&job, &|_, _| Box::new(OneF1BPolicy), &opts).expect("1f1b completes");
    // PipeDream stashes activations instead of recomputing them.
    let pd_opts = SimOptions {
        recompute: false,
        ..opts
    };
    let pipedream = simulate_minibatch(&job, &|_, _| Box::new(PipeDreamPolicy), &pd_opts)
        .expect("pipedream completes");
    vec![
        ("varuna", varuna.pipeline_time),
        ("gpipe", gpipe.pipeline_time),
        ("1f1b", onef1b.pipeline_time),
        ("pipedream", pipedream.pipeline_time),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varuna_schedule_is_shorter_offline_and_under_jitter() {
        let r = run();
        // Offline (Figure 4): fewer stalls, strictly shorter makespan.
        assert!(r.varuna.makespan < r.gpipe.makespan);
        // Under jitter the work-conserving deviation keeps the edge.
        assert!(
            r.varuna_jitter_time < r.gpipe_jitter_time,
            "varuna {:.3}s vs gpipe {:.3}s",
            r.varuna_jitter_time,
            r.gpipe_jitter_time
        );
    }

    #[test]
    fn every_discipline_completes_the_smoke_workload() {
        let times = smoke_all_disciplines();
        assert_eq!(times.len(), 4);
        for (name, t) in times {
            assert!(t > 0.0, "{name} must finish with a positive pipeline time");
        }
    }
}
