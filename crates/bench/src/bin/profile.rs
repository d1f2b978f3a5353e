//! Profiler smoke: profiled bubble fraction vs the closed-form pipeline
//! bubble, for GPipe and Varuna's 1F1B-style schedule.
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin profile -- --smoke
//! ```
//!
//! `--smoke` exits nonzero on any mismatch, so CI can gate on it. Always
//! writes `BENCH_profile.json`.
//!
//! Any other argument prints usage and exits 2 before anything runs.

use varuna_bench::util::{print_table, smoke_flag};

fn main() {
    let smoke = smoke_flag("profile [--smoke]", true);
    println!(
        "Profiler smoke: p={} n_micro={} (analytic bubble (p-1)/(m+p-1) = {:.4})\n",
        varuna_bench::profile::P,
        varuna_bench::profile::N_MICRO,
        (varuna_bench::profile::P - 1) as f64
            / (varuna_bench::profile::N_MICRO + varuna_bench::profile::P - 1) as f64
    );
    let rows = varuna_bench::profile::run();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.schedule.to_string(),
                format!("{:.4}", r.profiled_bubble),
                format!("{:.4}", r.analytic_bubble),
                format!("{:.2e}", r.max_lane_residual),
                format!("{:.4}", r.makespan),
                if r.is_clean() { "ok" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "profiled vs analytic bubble",
        &[
            "schedule",
            "profiled",
            "analytic",
            "lane_residual_s",
            "makespan_s",
            "verdict",
        ],
        &table,
    );

    for r in &rows {
        println!("\nper-stage utilization ({}):", r.schedule);
        print!("{}", r.report.stage_table());
    }

    let report = varuna_bench::profile::report(&rows);
    report
        .write(std::path::Path::new("BENCH_profile.json"))
        .expect("write BENCH_profile.json");
    println!(
        "\nmachine-readable report ({}) written to BENCH_profile.json",
        report.schema
    );

    if smoke && rows.iter().any(|r| !r.is_clean()) {
        eprintln!("PROFILE SMOKE FAILED: profiled bubble drifted from the analytic formula");
        std::process::exit(1);
    }
}
