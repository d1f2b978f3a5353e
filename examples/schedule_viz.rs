//! Visualize pipeline schedules for every discipline (paper Figure 4).
//!
//! Prints ASCII Gantt charts of the offline schedules — Varuna, GPipe,
//! 1F1B, and PipeDream — for a 4-stage pipeline with 5 micro-batches,
//! then executes Varuna and GPipe on the discrete-event emulator to show
//! the gap widening under network jitter. Every chart is in `varuna-sched`
//! unit time (`F = R = 1`, `B = 2`): Varuna's via [`generate_schedule`],
//! the planner's schedule kernel at unit times, and GPipe, 1F1B and
//! PipeDream via [`render_unit_schedule`], which runs any
//! [`SchedulePolicy`] on the emulator at unit times.
//!
//! ```console
//! $ cargo run --release --example schedule_viz
//! ```

use varuna_baselines::{GPipePolicy, OneF1BPolicy, PipeDreamPolicy};
use varuna_exec::gantt::ascii_gantt;
use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{
    render_unit_schedule, simulate_minibatch_on_bus, MinibatchResult, SimOptions,
};
use varuna_exec::placement::Placement;
use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
use varuna_net::Topology;
use varuna_obs::{profile::spans, EventBus, ProfileSpan, VecSink};
use varuna_sched::policy::{PolicyFactory, SchedulePolicy};
use varuna_sched::schedule::{generate_schedule, StaticSchedule, VarunaPolicy};

fn main() {
    // Offline unit-time schedules (F = R = 1, B = 2), as in Figure 4.
    let v = generate_schedule(4, 5, usize::MAX);
    let g = render(true, &|_, _| Box::new(GPipePolicy));
    let f = render(true, &|_, _| Box::new(OneF1BPolicy));
    let d = render(false, &|_, _| Box::new(PipeDreamPolicy));
    println!("Varuna static schedule (makespan {} units):", v.makespan);
    print_ops(&v.per_stage);
    println!("\nGPipe schedule (makespan {} units):", g.makespan);
    print_ops(&g.per_stage);
    println!("\n1F1B schedule (makespan {} units):", f.makespan);
    print_ops(&f.per_stage);
    println!(
        "\nPipeDream schedule, no recompute (makespan {} units):",
        d.makespan
    );
    print_ops(&d.per_stage);
    println!(
        "\nVaruna is {} unit(s) shorter than GPipe and spreads its idle slots (jitter buffers).",
        g.makespan - v.makespan
    );

    // Now execute both on the emulator with real times and jitter.
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
    let (varuna_run, varuna_spans) = run(&job, &move |s, _| -> Box<dyn SchedulePolicy> {
        Box::new(VarunaPolicy::for_stage(&sched, s))
    });
    let (gpipe_run, gpipe_spans) = run(&job, &|_, _| Box::new(GPipePolicy));
    println!(
        "\nemulated BERT-72, 4 stages x 16 micro-batches over Ethernet with jitter:\n  \
         Varuna {:.2}s   GPipe {:.2}s   ({:.0}% faster)",
        varuna_run.pipeline_time,
        gpipe_run.pipeline_time,
        100.0 * (gpipe_run.pipeline_time / varuna_run.pipeline_time - 1.0)
    );

    let cell = varuna_run.pipeline_time / 80.0;
    println!("\nVaruna execution (F=forward r=recompute B=backward):");
    println!("{}", ascii_gantt(&varuna_spans, 4, 0, cell));
    println!("GPipe execution:");
    println!("{}", ascii_gantt(&gpipe_spans, 4, 0, cell));
}

/// The Figure 4 shape's unit-time schedule under `policies`.
fn render(recompute: bool, policies: &PolicyFactory<'_>) -> StaticSchedule {
    render_unit_schedule(4, 5, usize::MAX, recompute, policies).unwrap()
}

/// Emulates one mini-batch and returns it with the per-op spans rebuilt
/// from its captured events.
fn run(job: &PlacedJob, policies: &PolicyFactory<'_>) -> (MinibatchResult, Vec<ProfileSpan>) {
    let tape = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(tape.clone()));
    let res = simulate_minibatch_on_bus(job, policies, &SimOptions::default(), &mut bus).unwrap();
    (res, spans(&tape.take()))
}

fn print_ops(per_stage: &[Vec<varuna_sched::op::Op>]) {
    for (s, ops) in per_stage.iter().enumerate().rev() {
        let line: Vec<String> = ops
            .iter()
            .map(|o| format!("{}{}", o.kind.code(), o.micro + 1))
            .collect();
        println!("  S{}: {}", s + 1, line.join(" "));
    }
}
