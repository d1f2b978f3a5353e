//! Drives the `varuna` binary: a zero count flag, an unknown flag, a
//! stray argument and an out-of-range `--hours` are usage errors with a
//! nonzero exit, an uncalibrated micro-batch size is never a panic, and
//! `varuna schedule` prints Figure 4's schedules for both disciplines.

use std::process::{Command, Output};

fn varuna(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_varuna"))
        .args(args.split_whitespace())
        .output()
        .expect("the varuna binary runs")
}

#[test]
fn zero_count_flags_are_rejected_without_a_panic() {
    for (args, flag) in [
        ("plan --model gpt2-2.5b --gpus 0", "--gpus"),
        ("sweep --model gpt2-2.5b --gpus 0", "--gpus"),
        ("plan --model gpt2-2.5b --gpus 8 --batch 0", "--batch"),
        ("sweep --model gpt2-2.5b --gpus 8 --batch 0", "--batch"),
        ("plan --model gpt2-2.5b --gpus 8 --micro 0", "--micro"),
        ("sweep --model gpt2-2.5b --gpus 8 --micro 0", "--micro"),
        ("schedule --stages 0 --micro-batches 5", "--stages"),
        ("schedule --stages 4 --micro-batches 0", "--micro-batches"),
        (
            "replay --model gpt2-2.5b --hosts 0 --target 8 --hours 1",
            "--hosts",
        ),
        (
            "replay --model gpt2-2.5b --hosts 2 --target 0 --hours 1",
            "--target",
        ),
    ] {
        let out = varuna(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`varuna {args}`: {stderr}");
        assert_eq!(
            stderr,
            format!("error: invalid value for {flag}\n"),
            "`varuna {args}`"
        );
        assert!(out.stdout.is_empty(), "`varuna {args}` printed a result");
    }
}

#[test]
fn uncalibrated_micro_batch_sizes_do_not_panic() {
    for args in [
        "plan --model gpt2-2.5b --gpus 8 --micro 5",
        "sweep --model gpt2-2.5b --gpus 8 --micro 32",
    ] {
        let out = varuna(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "`varuna {args}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`varuna {args}`: {stderr}");
    }
    // Neither command plans with an uncalibrated size: both exit 1 with
    // the same reason, and the sweep prints no table.
    for command in ["plan", "sweep"] {
        for micro in [5, 32] {
            let args = format!("{command} --model gpt2-2.5b --gpus 8 --micro {micro}");
            let out = varuna(&args);
            assert_eq!(out.status.code(), Some(1), "`varuna {args}`");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                format!(
                    "error: invalid configuration: micro-batch size {micro} was not calibrated \
                     (calibrated sizes: [1, 2, 3, 4, 6, 8, 12, 16])\n"
                ),
                "`varuna {args}`"
            );
            assert!(out.stdout.is_empty(), "`varuna {args}`");
        }
    }
    // A feasible size that no depth fits fails the sweep like the plan.
    let plan = varuna("plan --model gpt2-200b --gpus 8 --micro 1");
    let sweep = varuna("sweep --model gpt2-200b --gpus 8 --micro 1");
    assert_eq!(
        (plan.status.code(), sweep.status.code()),
        (Some(1), Some(1))
    );
    assert_eq!(plan.stderr, sweep.stderr);
    assert!(String::from_utf8_lossy(&sweep.stderr).contains("gpt2-200b"));
}

#[test]
fn schedule_prints_figure_4_for_both_disciplines() {
    for (discipline, want) in [
        (
            "varuna",
            "Varuna schedule, 4 stages x 5 micro-batches (makespan 26 units):\n  \
             S4: F1 B1 F2 B2 F3 B3 F4 B4 F5 B5\n  \
             S3: F1 F2 F3 R1 B1 F4 F5 R2 B2 R3 B3 R4 B4 R5 B5\n  \
             S2: F1 F2 F3 F4 F5 R1 B1 R2 B2 R3 B3 R4 B4 R5 B5\n  \
             S1: F1 F2 F3 F4 F5 R1 B1 R2 B2 R3 B3 R4 B4 R5 B5\n",
        ),
        (
            "gpipe",
            "GPipe schedule, 4 stages x 5 micro-batches (makespan 31 units):\n  \
             S4: F1 F2 F3 F4 F5 B5 R4 B4 R3 B3 R2 B2 R1 B1\n  \
             S3: F1 F2 F3 F4 F5 B5 R4 B4 R3 B3 R2 B2 R1 B1\n  \
             S2: F1 F2 F3 F4 F5 B5 R4 B4 R3 B3 R2 B2 R1 B1\n  \
             S1: F1 F2 F3 F4 F5 B5 R4 B4 R3 B3 R2 B2 R1 B1\n",
        ),
    ] {
        let out = varuna(&format!(
            "schedule --stages 4 --micro-batches 5 --discipline {discipline}"
        ));
        assert!(out.status.success(), "{discipline}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    }
}

/// Runs `varuna args` and checks it fails with exactly `error` and prints
/// nothing on stdout.
fn assert_rejected(args: &str, error: &str) {
    let out = varuna(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "`varuna {args}`: {stderr}");
    assert_eq!(stderr, format!("error: {error}\n"), "`varuna {args}`");
    assert!(out.stdout.is_empty(), "`varuna {args}` printed a result");
}

#[test]
fn unknown_flags_and_stray_arguments_are_rejected() {
    for (args, error) in [
        (
            "plan --model gpt2-355m --gpus 8 --micr 4 stray",
            "unknown flag --micr",
        ),
        (
            "plan --model gpt2-355m --gpus 8 --micro 4 stray",
            "unexpected argument `stray`",
        ),
        (
            "plan stray --model gpt2-355m --gpus 8",
            "unexpected argument `stray`",
        ),
        (
            "plan --model gpt2-355m --gpus 8 --gpus 16",
            "--gpus given twice",
        ),
        ("plan --model gpt2-355m --gpus", "missing value for --gpus"),
        ("plan --model --gpus 8", "missing value for --model"),
        (
            "sweep --model gpt2-355m --gpus 8 --offload",
            "unknown flag --offload",
        ),
        (
            "sweep --model gpt2-355m --gpus 8 --cluster 4gpu",
            "unknown flag --cluster",
        ),
        (
            "schedule --stages 4 --micro-batches 5 --window 2",
            "unknown flag --window",
        ),
        (
            "calibrate --model gpt2-355m --gpus 8",
            "unknown flag --gpus",
        ),
        (
            "replay --model gpt2-355m --hosts 2 --target 4 --hours 1 --cluster 1gpu",
            "unknown flag --cluster",
        ),
        ("models --model gpt2-355m", "unknown flag --model"),
        ("models extra", "unexpected argument `extra`"),
    ] {
        assert_rejected(args, error);
    }
}

#[test]
fn replay_hours_must_be_finite_positive_and_capped() {
    // Each value fails before a trace is generated, so none of these
    // starts a run (`inf` would otherwise never finish).
    for hours in ["-1", "0", "NaN", "inf", "-inf", "8760.5", "1e300"] {
        assert_rejected(
            &format!("replay --model gpt2-355m --hosts 2 --target 4 --hours {hours}"),
            &format!(
                "invalid value for --hours: {:?} is not in (0, 8760]",
                hours.parse::<f64>().unwrap()
            ),
        );
    }
    assert_rejected(
        "replay --model gpt2-355m --hosts 2 --target 4 --hours soon",
        "invalid value for --hours",
    );
}

#[test]
fn the_switch_and_optional_flags_are_accepted() {
    let out = varuna("plan --model gpt2-355m --gpus 8 --micro 4 --cluster 4gpu --offload");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("micro-batch m = 4"));
    let out = varuna("replay --model gpt2-355m --hosts 2 --target 4 --hours 1 --micro 2");
    assert!(out.status.success(), "{out:?}");
    assert!(varuna("models").status.success());
}
