//! Shared helpers for the experiment harness.

use varuna::calibrate::Calibration;
use varuna::job::TrainingJob;
use varuna::planner::Planner;
use varuna::VarunaCluster;
use varuna_exec::metrics::Throughput;
use varuna_exec::pipeline::SimOptions;
use varuna_models::config::TransformerConfig;

/// Runs one Varuna mini-batch for an explicit `(p, d, m)` on `cluster` and
/// returns its throughput.
///
/// # Panics
///
/// Panics if the configuration is infeasible — experiment configs come
/// from the paper and must work.
pub fn varuna_throughput(
    model: &TransformerConfig,
    cluster: &VarunaCluster,
    p: usize,
    d: usize,
    m: usize,
    m_total: usize,
    offload: bool,
) -> Throughput {
    let calib = Calibration::profile(model, cluster);
    let cfg = Planner::new(model, &calib)
        .batch_size(m_total)
        .micro_batch(m)
        .offload(offload)
        .evaluate(p, d)
        .unwrap_or_else(|e| panic!("{}: {p}x{d} m={m}: {e}", model.name));
    let job = TrainingJob::build(&calib, cluster, cfg)
        .unwrap_or_else(|e| panic!("{}: building {p}x{d}: {e}", model.name));
    let (_, tput) = job
        .run_minibatch(&SimOptions::default())
        .unwrap_or_else(|e| panic!("{}: running {p}x{d}: {e}", model.name));
    tput
}

/// A minimal markdown-ish table printer for experiment binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// The arguments of a seeded sweep binary: `--smoke` (where the binary
/// has a smoke mode) anywhere, and at most one positive count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepArgs {
    /// Whether `--smoke` was given.
    pub smoke: bool,
    /// The count, if one was given.
    pub count: Option<u64>,
}

/// Parses a bench binary's arguments (program name excluded): `--smoke`
/// where `accepts_smoke`, and at most one positive count where
/// `takes_count`.
///
/// # Errors
///
/// Describes the first argument that is neither an accepted `--smoke`
/// nor an accepted count.
fn parse_sweep_args(
    args: impl IntoIterator<Item = String>,
    accepts_smoke: bool,
    takes_count: bool,
) -> Result<SweepArgs, String> {
    let mut parsed = SweepArgs {
        smoke: false,
        count: None,
    };
    for arg in args {
        match arg.parse::<u64>() {
            _ if accepts_smoke && arg == "--smoke" => parsed.smoke = true,
            Ok(n) if takes_count && n > 0 && parsed.count.is_none() => parsed.count = Some(n),
            Ok(0) if takes_count => return Err("the count must be positive".to_string()),
            Ok(_) if takes_count => return Err(format!("unexpected second count '{arg}'")),
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
    }
    Ok(parsed)
}

/// Parses the process's own arguments. On error, prints the error and
/// `usage` to stderr and exits with status 2, before the binary runs or
/// writes anything.
fn args_or_exit(usage: &str, accepts_smoke: bool, takes_count: bool) -> SweepArgs {
    parse_sweep_args(std::env::args().skip(1), accepts_smoke, takes_count).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

/// Parses a sweep binary's own arguments as [`SweepArgs`], exiting with
/// status 2 and `usage` on a bad argument.
pub fn sweep_args(usage: &str, accepts_smoke: bool) -> SweepArgs {
    args_or_exit(usage, accepts_smoke, true)
}

/// Parses the own arguments of a binary that takes no count: whether
/// `--smoke` was given (where `accepts_smoke`). Any other argument exits
/// with status 2 and `usage`.
pub fn smoke_flag(usage: &str, accepts_smoke: bool) -> bool {
    args_or_exit(usage, accepts_smoke, false).smoke
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_models::ModelZoo;

    fn parse(args: &[&str], accepts_smoke: bool) -> Result<SweepArgs, String> {
        parse_sweep_args(args.iter().map(|a| a.to_string()), accepts_smoke, true)
    }

    #[test]
    fn sweep_args_take_smoke_anywhere_and_one_positive_count() {
        let args = |smoke, count| Ok(SweepArgs { smoke, count });
        assert_eq!(parse(&[], true), args(false, None));
        assert_eq!(parse(&["4"], true), args(false, Some(4)));
        assert_eq!(parse(&["--smoke", "4"], true), args(true, Some(4)));
        assert_eq!(parse(&["4", "--smoke"], true), args(true, Some(4)));
        for bad in [
            &["0"][..],
            &["-3"],
            &["abc"],
            &["4", "5"],
            &["--bogus"],
            &["--smoke", "0"],
            &["18446744073709551616"],
        ] {
            assert!(parse(bad, true).is_err(), "{bad:?}");
        }
        assert!(parse(&["--smoke"], false).is_err());
    }

    #[test]
    fn flag_only_args_take_only_smoke() {
        let parse = |args: &[&str], accepts_smoke| {
            parse_sweep_args(args.iter().map(|a| a.to_string()), accepts_smoke, false)
                .map(|a| a.smoke)
        };
        assert_eq!(parse(&[], true), Ok(false));
        assert_eq!(parse(&["--smoke"], true), Ok(true));
        assert_eq!(parse(&[], false), Ok(false));
        for bad in [&["--smok"][..], &["4"], &["0"], &["--smoke", "x"], &["-s"]] {
            assert_eq!(
                parse(bad, true),
                Err(format!("unexpected argument '{}'", bad[bad.len() - 1])),
                "{bad:?}"
            );
        }
        assert!(parse(&["--smoke"], false).is_err());
    }

    #[test]
    fn varuna_throughput_runs_a_paper_config() {
        let t = varuna_throughput(
            &ModelZoo::gpt2_2_5b(),
            &VarunaCluster::commodity_1gpu(63),
            9,
            7,
            4,
            8192,
            false,
        );
        assert_eq!(t.gpus, 63);
        assert!(t.examples_per_sec_per_gpu > 0.0);
    }

    #[test]
    fn table_printer_does_not_panic_on_ragged_rows() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into()], vec!["22".into(), "3".into()]],
        );
    }
}
