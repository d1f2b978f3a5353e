//! Sweeps seeded fault schedules through the manager and reports whether
//! every recovery invariant held.
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin chaos_sweep -- 50
//! ```
//!
//! The optional argument is the number of seeds (positive, default 8);
//! any other argument prints usage and exits 2 before anything runs.
//! Every run rewrites `BENCH_chaos_sweep.json`: the committed file is the
//! 8-seed run, so a bare run (or `-- 8`) reproduces it byte for byte and
//! any other count replaces it. Exits nonzero if any seed panics or
//! violates an invariant, so CI can use it as a smoke gate.

use varuna_bench::util::{print_table, sweep_args};

fn main() {
    let seeds = sweep_args("chaos_sweep [SEEDS]", false).count.unwrap_or(8);
    println!("Chaos sweep: {seeds} seeded fault schedules vs the manager\n");
    let s = varuna_bench::chaos_sweep::run(seeds);

    let rows: Vec<Vec<String>> = s
        .rows
        .iter()
        .map(|r| {
            vec![
                r.seed.to_string(),
                r.faults.to_string(),
                r.morphs.to_string(),
                r.degraded_entries.to_string(),
                r.lost_minibatches.to_string(),
                r.violations.to_string(),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    print_table(
        "per-seed outcomes",
        &[
            "seed",
            "faults",
            "morphs",
            "degraded",
            "lost_mb",
            "violations",
            "digest",
        ],
        &rows,
    );
    println!(
        "\nsummary: {} seeds, {} faults injected, {} panics, {} harness errors, \
         {} invariant violations, {} seeds saw a Degraded episode",
        s.rows.len(),
        s.total_faults(),
        s.panics,
        s.errors,
        s.total_violations(),
        s.rows.iter().filter(|r| r.degraded_entries > 0).count(),
    );

    let report = varuna_bench::chaos_sweep::report(&s);
    report
        .write(std::path::Path::new("BENCH_chaos_sweep.json"))
        .expect("write BENCH_chaos_sweep.json");
    println!(
        "machine-readable report ({}) written to BENCH_chaos_sweep.json",
        report.schema
    );

    if !s.is_clean() {
        // Dump each dirty seed's failure artifacts (violations, downtime
        // profile, flight-recorder tail) where CI can upload them.
        for (seed, artifacts) in &s.failures {
            let path = format!("chaos_failure_seed{seed}.txt");
            std::fs::write(&path, artifacts).expect("write failure artifacts");
            eprintln!("failure artifacts for seed {seed} written to {path}");
            eprint!("{artifacts}");
        }
        eprintln!("CHAOS SWEEP FAILED: recovery invariants violated");
        std::process::exit(1);
    }
}
