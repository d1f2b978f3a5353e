//! Prints Figure 8: the 60-hour spot-training timeline with morphing,
//! plus the before/after downtime attribution of zero-downtime morphing.
//!
//! With `--smoke` the timeline print is skipped and the binary exits
//! nonzero unless the zero-downtime policy cuts the profiler-attributed
//! downtime fraction by at least 30% versus the full-restart baseline —
//! the CI gate on the morphing path.
//!
//! Any other argument prints usage and exits 2 before anything runs.

use std::process::ExitCode;

use varuna::manager::TimelineEvent;
use varuna_bench::fig8::DowntimeComparison;
use varuna_bench::util::smoke_flag;

/// The CI bar: minimum relative drop in downtime fraction.
const SMOKE_REDUCTION_BAR: f64 = 0.30;

fn print_comparison(cmp: &DowntimeComparison) {
    println!("\ndowntime attribution (same trace, full-restart baseline vs zero-downtime policy):");
    println!(
        "  baseline:      {:.1}s downtime / {:.1}s makespan = {:.2}% \
         ({:.1}s restarts, {:.1}s lost work, {:.1}s checkpoint writes)",
        cmp.baseline.downtime_seconds(),
        cmp.baseline_makespan,
        100.0 * cmp.baseline_fraction(),
        cmp.baseline.morph_restart_seconds,
        cmp.baseline.lost_work_seconds,
        cmp.baseline.checkpoint_write_seconds,
    );
    println!(
        "  zero-downtime: {:.1}s downtime / {:.1}s makespan = {:.2}% \
         ({:.1}s live migration over {} migrations, {:.1}s residual writes, \
         {:.1}s overlapped — not priced)",
        cmp.zero_downtime.downtime_seconds(),
        cmp.zero_downtime_makespan,
        100.0 * cmp.zero_downtime_fraction(),
        cmp.zero_downtime.migration_seconds,
        cmp.zero_downtime.migrations,
        cmp.zero_downtime.checkpoint_write_seconds,
        cmp.zero_downtime.checkpoint_overlapped_seconds,
    );
    println!(
        "  downtime fraction reduction: {:.1}%",
        100.0 * cmp.reduction()
    );
}

fn main() -> ExitCode {
    let smoke = smoke_flag("fig8_morphing [--smoke]", true);

    if smoke {
        let cmp = varuna_bench::fig8::downtime_comparison();
        print_comparison(&cmp);
        if cmp.reduction() < SMOKE_REDUCTION_BAR {
            eprintln!(
                "FAIL: downtime reduction {:.1}% is below the {:.0}% bar",
                100.0 * cmp.reduction(),
                100.0 * SMOKE_REDUCTION_BAR
            );
            return ExitCode::FAILURE;
        }
        println!(
            "smoke OK: reduction clears the {:.0}% bar",
            100.0 * SMOKE_REDUCTION_BAR
        );
        return ExitCode::SUCCESS;
    }

    let r = varuna_bench::fig8::run();
    println!("Figure 8: GPT-2 2.5B on spot VMs over 60 hours (mini-batch 8192)\n");
    println!(
        "{:>7} {:>5} {:>8} {:>9} {:>10}  event",
        "t(h)", "GPUs", "PxD", "ex/s", "ex/s/GPU"
    );
    for p in &r.timeline {
        let tag = match &p.event {
            TimelineEvent::Morph { p, d } => format!("morph -> {p}x{d}"),
            TimelineEvent::Replacement => "p".to_string(),
            TimelineEvent::Checkpoint => "ckpt".to_string(),
        };
        println!(
            "{:>7.2} {:>5} {:>8} {:>9.1} {:>10.2}  {}",
            p.t_hours,
            p.gpus_held,
            format!("{}x{}", p.p, p.d),
            p.ex_per_sec,
            p.ex_per_sec_per_gpu,
            tag
        );
    }
    println!(
        "\nsummary: {} morphs, {} replacements (the paper's 'p' markers), {} checkpoints",
        r.morphs, r.replacements, r.checkpoints
    );
    println!(
        "total throughput varies {:.1}x with capacity; per-GPU throughput varies only {:.2}x \
         (paper: ~5x vs ~15%)",
        r.total_spread, r.per_gpu_spread
    );

    let cmp = varuna_bench::fig8::downtime_comparison();
    print_comparison(&cmp);

    let report = varuna_bench::fig8::report(&r, &cmp);
    report
        .write(std::path::Path::new("BENCH_fig8_morphing.json"))
        .expect("write BENCH_fig8_morphing.json");
    println!(
        "\nmachine-readable report ({}) written to BENCH_fig8_morphing.json",
        report.schema
    );
    ExitCode::SUCCESS
}
