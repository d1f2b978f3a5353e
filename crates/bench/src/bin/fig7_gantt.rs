//! Prints Figure 7: Gantt chart of one Varuna mini-batch on the 20B model
//! (49x6), writes the full span CSV to `fig7_gantt.csv`, and writes a
//! Perfetto-loadable chrome trace of replica 0 to `fig7_trace.json`.
//!
//! Takes no arguments: any argument prints usage and exits 2 before
//! anything runs.

use varuna_bench::util::smoke_flag;
use varuna_exec::gantt::{ascii_gantt, spans_csv};
use varuna_obs::chrome_trace_json;

fn main() {
    smoke_flag("fig7_gantt", false);
    let (r, events) = varuna_bench::fig7::run_traced();
    println!(
        "Figure 7: GPT-2 20B, 49x6, one mini-batch\n\
         pipeline phase {:.1}s, total {:.1}s (allreduce region {:.1}s at the right edge)",
        r.pipeline_time,
        r.total_time,
        r.total_time - r.pipeline_time
    );

    // A readable window: the first 10 stages over the first tenth of the
    // pipeline (F=red, r=orange recompute, B=green in the paper's colors).
    let window: Vec<_> = r.trace.iter().filter(|t| t.stage < 10).copied().collect();
    let cell = r.pipeline_time / 160.0;
    println!("\nFirst 10 stages (F=forward r=recompute B=backward, '.'=idle):");
    let chart = ascii_gantt(&window, 10, 0, cell);
    for line in chart.lines() {
        println!("{}", &line[..line.len().min(170)]);
    }

    let csv = spans_csv(&r.trace);
    std::fs::write("fig7_gantt.csv", &csv).expect("write fig7_gantt.csv");
    println!(
        "\nFull trace ({} spans across 49 stages) written to fig7_gantt.csv.",
        r.trace.len()
    );
    println!(
        "Per-stage allreduce (purple region): {:.2}s-{:.2}s",
        r.allreduce.iter().cloned().fold(f64::MAX, f64::min),
        r.allreduce.iter().cloned().fold(0.0, f64::max)
    );

    let trace_json = chrome_trace_json(&events);
    std::fs::write("fig7_trace.json", &trace_json).expect("write fig7_trace.json");
    println!(
        "Chrome trace of replica 0 ({} events) written to fig7_trace.json — \
         open it at https://ui.perfetto.dev or chrome://tracing.",
        events.len()
    );

    println!(
        "\nTime attribution (replica 0): bubble fraction {:.1}%",
        r.profile.bubble_fraction * 100.0
    );
    if let Some(cp) = &r.profile.critical_path {
        println!(
            "critical path {:.2}s over {} ops ({:.2}s compute, {:.2}s wait), \
             bottleneck stage {}",
            cp.length, cp.ops, cp.compute_seconds, cp.wait_seconds, cp.bottleneck_stage
        );
    }
    println!("(full per-stage table: `varuna-profile fig7_trace.json`)");
}
