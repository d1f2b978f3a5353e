//! The bench binaries reject bad arguments with a usage error (exit 2)
//! before anything runs, so a typo can never overwrite a committed
//! `BENCH_*.json` with a vacuous report.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` with `args` in a fresh directory and returns its exit code
/// and whether it left any `BENCH_*.json` behind.
fn run(bin: &str, case: &str, args: &[&str]) -> (Option<i32>, bool) {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli_args")
        .join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let status = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn binary")
        .status;
    let wrote = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .filter_map(Result::ok)
        .any(|e| e.file_name().to_string_lossy().starts_with("BENCH_"));
    (status.code(), wrote)
}

#[test]
fn chaos_sweep_rejects_bad_counts_before_writing() {
    let bin = env!("CARGO_BIN_EXE_chaos_sweep");
    for (case, args) in [
        ("chaos_zero", &["0"][..]),
        ("chaos_word", &["abc"]),
        ("chaos_negative", &["-3"]),
        ("chaos_two_counts", &["4", "5"]),
        ("chaos_smoke", &["--smoke"]),
    ] {
        assert_eq!(run(bin, case, args), (Some(2), false), "{args:?}");
    }
}

#[test]
fn recovery_sweep_rejects_bad_arguments_before_writing() {
    let bin = env!("CARGO_BIN_EXE_recovery_sweep");
    for (case, args) in [
        ("recovery_bogus", &["--bogus"][..]),
        ("recovery_zero", &["0"]),
        ("recovery_smoke_zero", &["--smoke", "0"]),
        ("recovery_word_after_smoke", &["--smoke", "abc"]),
        ("recovery_two_counts", &["4", "5", "--smoke"]),
    ] {
        assert_eq!(run(bin, case, args), (Some(2), false), "{args:?}");
    }
}

#[test]
fn flag_only_binaries_reject_a_typo_before_writing() {
    for (name, bin) in [
        ("fleet_sweep", env!("CARGO_BIN_EXE_fleet_sweep")),
        ("fig8_morphing", env!("CARGO_BIN_EXE_fig8_morphing")),
        ("profile_stream", env!("CARGO_BIN_EXE_profile_stream")),
        ("profile", env!("CARGO_BIN_EXE_profile")),
        ("plan_latency", env!("CARGO_BIN_EXE_plan_latency")),
        ("fig4_schedule", env!("CARGO_BIN_EXE_fig4_schedule")),
    ] {
        let case = format!("{name}_typo");
        assert_eq!(run(bin, &case, &["--smok"]), (Some(2), false), "{name}");
    }
    // Figure 4 has no smoke mode.
    let bin = env!("CARGO_BIN_EXE_fig4_schedule");
    assert_eq!(run(bin, "fig4_smoke", &["--smoke"]), (Some(2), false));
}

#[test]
fn table_and_figure_binaries_reject_any_argument_before_writing() {
    for (name, bin) in [
        ("table3_depth", env!("CARGO_BIN_EXE_table3_depth")),
        ("fig7_gantt", env!("CARGO_BIN_EXE_fig7_gantt")),
    ] {
        for (case, args) in [("smoke", &["--smoke"][..]), ("stray", &["100"])] {
            let case = format!("{name}_{case}");
            assert_eq!(run(bin, &case, args), (Some(2), false), "{name} {args:?}");
        }
    }
}
