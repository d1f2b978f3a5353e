//! Drives the `varuna` binary: a zero count flag is a usage error with a
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
