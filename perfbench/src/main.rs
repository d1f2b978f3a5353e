//! Layered host-time benchmark for the Varuna reproduction.
//!
//! `varuna-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one seeded, single-process workload in a closed loop (each call
//! starts when the previous one returns) for about `--seconds`, checks
//! the program's outputs, prints a human report, and ends with one JSON
//! line: the end-to-end metrics with tracing off, or the per-layer
//! metrics of a traced iteration with tracing on. It exits nonzero when
//! any output check failed. See `README.md` for the workloads and the
//! meaning of every metric.

mod common;
mod events;
mod fleet;
mod host;
mod inputs;
mod replan;
mod report;
mod retime;
mod spans;
mod spot;
mod stats;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["replan_burst", "spot_replay", "fleet_market"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: varuna-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = match args.workload.as_str() {
        "replan_burst" => replan::SIM_THREADS,
        _ => 0,
    };
    let mut rep = Report::new(
        &args.workload,
        args.seed,
        args.trace,
        host::Host::detect(),
        threads,
    );
    let tracer = match args.workload.as_str() {
        "replan_burst" => replan::run(args.seed, args.seconds, args.trace, &mut rep),
        "spot_replay" => spot::run(args.seed, args.seconds, args.trace, &mut rep),
        "fleet_market" => fleet::run(args.seed, args.seconds, args.trace, &mut rep),
        _ => unreachable!("workload validated by parse"),
    };
    if !args.trace {
        match host::peak_rss_mb() {
            Some(mb) => rep.set("peak_rss_mb", mb, 1, "VmHWM at exit"),
            None => rep.op(vec![
                "peak RSS unavailable (no /proc/self/status)".to_string()
            ]),
        }
    }
    if let (Some(t), Some(dir)) = (tracer, &args.spans_dir) {
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.borrow().to_json()));
        match written {
            Ok(()) => rep.note(format!("spans written to {}", path.display())),
            Err(e) => rep.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
    rep.validate();
    print!("{}", rep.human());
    println!("{}", rep.json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload spot_replay --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("spot_replay", 3, 10.0, true)
        );
        assert!(parse(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload spot_replay --seed x --seconds 10 --trace 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "--workload spot_replay --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "--workload spot_replay --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload spot_replay --seed 1 --seconds 5")).is_err());
    }
}
