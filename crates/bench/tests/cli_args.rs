//! The seeded sweep binaries reject bad arguments with a usage error
//! (exit 2) before any sweep runs, so a typo can never overwrite a
//! committed `BENCH_*.json` with a vacuous report.

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
