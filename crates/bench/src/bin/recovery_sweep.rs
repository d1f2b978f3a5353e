//! Kills the write-ahead-logged control plane at seeded kill points and
//! reports whether every recovery reproduced the uninterrupted run.
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin recovery_sweep            # exhaustive, 8 seeds
//! $ cargo run --release -p varuna-bench --bin recovery_sweep -- --smoke # 1 planned kill/seed
//! $ cargo run --release -p varuna-bench --bin recovery_sweep -- 4      # exhaustive, 4 seeds
//! ```
//!
//! Exhaustive mode kills at every WAL record boundary (clean and torn);
//! smoke mode takes the injector-planned kill per seed. The seed count is
//! positive and `--smoke` may come before or after it; any other argument
//! prints usage and exits 2 before anything runs. Exits nonzero if any
//! kill point panics, diverges from the uninterrupted digest, leaves
//! different WAL bytes, or misses a torn tail — so CI can gate on it.

use varuna_bench::recovery_sweep;
use varuna_bench::util::{print_table, sweep_args};

fn main() {
    let args = sweep_args("recovery_sweep [--smoke] [SEEDS]", true);
    let (smoke, seeds) = (args.smoke, args.count.unwrap_or(8));
    println!(
        "Recovery sweep{}: {seeds} seeded kill schedules vs the WAL-recovered manager\n",
        if smoke { " (smoke)" } else { " (exhaustive)" }
    );
    let s = if smoke {
        recovery_sweep::smoke(seeds)
    } else {
        recovery_sweep::run(seeds)
    };

    let rows: Vec<Vec<String>> = s
        .rows
        .iter()
        .map(|r| {
            vec![
                r.seed.to_string(),
                r.wal_records.to_string(),
                r.kills.to_string(),
                r.torn_kills.to_string(),
                r.torn_detected.to_string(),
                r.replayed_records.to_string(),
                format!("{:.3}", r.replay_seconds),
                r.violations.to_string(),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    print_table(
        "per-seed kill-anywhere outcomes",
        &[
            "seed",
            "wal_recs",
            "kills",
            "torn",
            "torn_det",
            "replayed",
            "replay_s",
            "violations",
            "digest",
        ],
        &rows,
    );
    println!(
        "\nsummary: {} seeds, {} kill points ({} torn), {} panics, {} harness errors, \
         {} kill-anywhere violations",
        s.rows.len(),
        s.total_kills(),
        s.total_torn_kills(),
        s.panics,
        s.errors,
        s.total_violations(),
    );

    let report = recovery_sweep::report(&s);
    report
        .write(std::path::Path::new("BENCH_recovery_sweep.json"))
        .expect("write BENCH_recovery_sweep.json");
    println!(
        "machine-readable report ({}) written to BENCH_recovery_sweep.json",
        report.schema
    );

    if !s.is_clean() {
        // Dump each dirty seed's failure artifacts (violations, digests,
        // torn-tail accounting) where CI can upload them.
        for (seed, artifacts) in &s.failures {
            let path = format!("recovery_failure_seed{seed}.txt");
            std::fs::write(&path, artifacts).expect("write failure artifacts");
            eprintln!("failure artifacts for seed {seed} written to {path}");
            eprint!("{artifacts}");
        }
        eprintln!("RECOVERY SWEEP FAILED: kill-anywhere invariant violated");
        std::process::exit(1);
    }
}
