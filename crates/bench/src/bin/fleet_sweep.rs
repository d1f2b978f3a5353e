//! Sweeps the three provisioning policies over one contended shared
//! spot market and writes `BENCH_fleet_sweep.json`.
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin fleet_sweep            # 10 jobs, 3 days
//! $ cargo run --release -p varuna-bench --bin fleet_sweep -- --smoke # 3 jobs, 6 hours
//! ```
//!
//! Exits nonzero if any policy run breaks a capacity or fair-share
//! invariant, produces a non-finite aggregate, or fails the same-seed
//! determinism check — and, in the full run, if the mixed policy fails
//! either headline comparison (cheaper per token than on-demand-only,
//! more goodput than spot-only), so CI can gate on it.
//!
//! Any other argument prints usage and exits 2 before anything runs.

use varuna_bench::fleet_sweep::{self, POLICIES};
use varuna_bench::util::{print_table, smoke_flag};
use varuna_fleet::ProvisionPolicy;

fn main() {
    let smoke = smoke_flag("fleet_sweep [--smoke]", true);
    let (jobs, hours, seed) = if smoke { (3, 6.0, 7) } else { (10, 72.0, 42) };
    println!(
        "Fleet sweep{}: {jobs} jobs, {hours}h shared market, seed {seed}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let s = fleet_sweep::run(jobs, hours, seed);
    println!(
        "market: {} one-GPU spot hosts vs {} GPUs of total demand ({}% contended)\n",
        s.hosts,
        s.total_demand,
        100 * (s.total_demand - s.hosts) / s.total_demand.max(1)
    );

    let rows: Vec<Vec<String>> = s
        .rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                format!("{:.0}", r.dollars),
                format!("{:.2e}", r.tokens),
                format!("{:.3e}", r.dollars_per_ktoken),
                format!("{:.2e}", r.goodput_tokens_per_hour),
                format!("{:.3}", r.jain),
                format!("{:.0}", r.spot_gpu_hours),
                format!("{:.0}", r.on_demand_gpu_hours),
                format!("{}", r.capacity_violations + r.fairness_violations),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    print_table(
        "policy comparison (same jobs, same market)",
        &[
            "policy",
            "dollars",
            "tokens",
            "$/ktoken",
            "tokens/h",
            "jain",
            "spot_gpuh",
            "od_gpuh",
            "violations",
            "digest",
        ],
        &rows,
    );

    let job_rows: Vec<Vec<String>> = s
        .mixed
        .per_job
        .iter()
        .map(|j| {
            vec![
                j.name.clone(),
                format!("{:.2e}", j.tokens),
                format!("{:.0}", j.spot_gpu_hours),
                format!("{:.0}", j.on_demand_gpu_hours),
                format!("{:.0}", j.dollars),
                j.morphs.to_string(),
                j.preemptions.to_string(),
                format!("{:.2}", j.degraded_hours),
            ]
        })
        .collect();
    print_table(
        "per-job outcomes under spot_with_fallback",
        &[
            "job",
            "tokens",
            "spot_gpuh",
            "od_gpuh",
            "dollars",
            "morphs",
            "preempt",
            "degr_h",
        ],
        &job_rows,
    );

    let spot = s.row(ProvisionPolicy::SpotOnly);
    let od = s.row(ProvisionPolicy::OnDemandOnly);
    let mixed = s.row(ProvisionPolicy::SpotWithFallback);
    println!(
        "\nheadline: mixed pays {:.1}% of on-demand $/token, delivers {:.2}x spot-only goodput",
        100.0 * mixed.dollars_per_ktoken / od.dollars_per_ktoken,
        mixed.goodput_tokens_per_hour / spot.goodput_tokens_per_hour,
    );
    println!(
        "determinism: rerun digest {} ({})",
        if s.rerun_digest_match {
            "matches"
        } else {
            "DIVERGED"
        },
        format_args!("{:016x}", mixed.digest),
    );

    fleet_sweep::report(&s)
        .write(std::path::Path::new("BENCH_fleet_sweep.json"))
        .expect("write BENCH_fleet_sweep.json");
    println!("machine-readable report written to BENCH_fleet_sweep.json");

    let mut failed = false;
    if !s.is_clean() {
        eprintln!("FAIL: invariant violation, non-finite aggregate, or digest divergence");
        failed = true;
    }
    if !smoke && !s.mixed_wins() {
        eprintln!("FAIL: spot_with_fallback lost a headline comparison");
        failed = true;
    }
    for p in POLICIES {
        let r = s.row(p);
        if r.capacity_violations + r.fairness_violations > 0 {
            eprintln!("FAIL: {} violated arbiter invariants", r.policy);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
