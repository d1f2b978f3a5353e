//! Golden-file regression tests for the deterministic bench reports.
//!
//! `fig5_fig6` and `table3` simulate with a fixed seed, so their
//! [`BenchReport`] JSON must reproduce byte-for-byte, and so must the
//! `fig4_schedule` binary's printed schedules and timings. Any intentional
//! change to the pipeline model, calibration, or schedule shows up here
//! as a diff against the committed golden — regenerate the files by
//! re-running the producing `report()` and review the numeric drift in
//! the PR, rather than discovering it downstream.
//!
//! [`BenchReport`]: varuna_obs::BenchReport

use varuna_bench::{fig5_fig6, table3};

#[test]
fn table3_report_matches_the_golden_file() {
    let rep = table3::report(&table3::run());
    assert_eq!(
        rep.to_json(),
        include_str!("goldens/table3_depth.json"),
        "table3 bench JSON drifted from the committed golden"
    );
}

#[test]
fn fig5_fig6_report_matches_the_golden_file() {
    let fig5 = fig5_fig6::run_fig5();
    let fig6 = fig5_fig6::run_fig6();
    let rep = fig5_fig6::report(&fig5, &fig6);
    assert_eq!(
        rep.to_json(),
        include_str!("goldens/fig5_fig6.json"),
        "fig5/fig6 bench JSON drifted from the committed golden"
    );
}

#[test]
fn fig4_schedule_output_matches_the_golden_file() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig4_schedule"))
        .output()
        .expect("spawn fig4_schedule");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("goldens/fig4_schedule.txt"),
        "fig4_schedule output drifted from the committed golden"
    );
}
