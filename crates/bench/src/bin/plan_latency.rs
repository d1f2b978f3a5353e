//! Prices the planner's three evaluation paths — analytic, cold
//! simulator-in-the-loop, and memoized — across Table-3 model scales.
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin plan_latency
//! $ cargo run --release -p varuna-bench --bin plan_latency -- --smoke
//! ```
//!
//! The default run sweeps every scale at the paper's batch size and writes
//! `BENCH_plan_latency.json`. `--smoke` runs one reduced scale with CI
//! assertions (plan latency under a generous bound, warm cache hit rate
//! above zero) and writes no report. Both modes exit nonzero when a warm
//! repeat is less than 10x faster than its cold sweep or when the analytic
//! and simulated searches pick different configurations.
//!
//! Any other argument prints usage and exits 2 before anything runs.

use varuna_bench::plan_latency::{measure, report, run, Row};
use varuna_bench::util::{f1, f3, print_table, smoke_flag};
use varuna_models::ModelZoo;

fn table(rows: &[Row]) {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.gpus.to_string(),
                r.candidates.to_string(),
                f3(r.analytic_ms),
                f1(r.cold_ms),
                f3(r.warm_ms),
                f1(r.memo_speedup),
                format!("{}x{}", r.analytic_pd.0, r.analytic_pd.1),
                format!("{}x{}", r.sim_pd.0, r.sim_pd.1),
            ]
        })
        .collect();
    print_table(
        "plan latency by evaluation path",
        &[
            "model",
            "gpus",
            "cands",
            "analytic_ms",
            "cold_sim_ms",
            "warm_sim_ms",
            "speedup",
            "analytic_pd",
            "sim_pd",
        ],
        &cells,
    );
}

/// The bar every scale must clear: a memoized repeat runs no emulation
/// and no analytic estimate, so it must beat the cold sweep by this much.
const MIN_MEMO_SPEEDUP: f64 = 10.0;

/// Failures shared by the smoke and full runs.
fn gate(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let scale = format!("{} at {} GPUs", r.model, r.gpus);
        if r.memo_speedup < MIN_MEMO_SPEEDUP {
            failures.push(format!(
                "{scale}: memoized repeat only {:.1}x faster than cold (< {MIN_MEMO_SPEEDUP}x)",
                r.memo_speedup
            ));
        }
        if !r.paths_agree() {
            failures.push(format!(
                "{scale}: analytic pick {}x{} != simulated pick {}x{}",
                r.analytic_pd.0, r.analytic_pd.1, r.sim_pd.0, r.sim_pd.1
            ));
        }
    }
    failures
}

fn smoke() {
    println!("Plan-latency smoke: GPT-2 2.5B at 24 GPUs, reduced batch\n");
    let row = measure(&ModelZoo::gpt2_2_5b(), 24, 768);
    table(std::slice::from_ref(&row));
    let mut failures = gate(std::slice::from_ref(&row));
    if row.cold_ms > 60_000.0 {
        failures.push(format!(
            "cold sim sweep took {:.0} ms (> 60 s)",
            row.cold_ms
        ));
    }
    if row.warm_hit_rate <= 0.0 {
        failures.push("second morph event had a zero cache hit rate".to_string());
    }
    if failures.is_empty() {
        println!(
            "\nsmoke OK: warm hit rate {:.2}, memoized repeat {:.0}x faster",
            row.warm_hit_rate, row.memo_speedup
        );
    } else {
        for f in &failures {
            eprintln!("PLAN LATENCY SMOKE FAILED: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    if smoke_flag("plan_latency [--smoke]", true) {
        smoke();
        return;
    }

    println!("Plan latency: analytic vs simulated vs memoized search\n");
    let rows = run();
    table(&rows);

    let min = rows
        .iter()
        .map(|r| r.memo_speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nsummary: {} scales, memoized repeat at least {:.0}x faster than a cold \
         simulated sweep",
        rows.len(),
        min
    );

    let rep = report(&rows);
    rep.write(std::path::Path::new("BENCH_plan_latency.json"))
        .expect("write BENCH_plan_latency.json");
    println!(
        "machine-readable report ({}) written to BENCH_plan_latency.json",
        rep.schema
    );

    let failures = gate(&rows);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("PLAN LATENCY FAILED: {f}");
        }
        std::process::exit(1);
    }
}
