//! `varuna-profile` — turn a captured event stream into a time-attribution
//! report.
//!
//! Accepts either a `JsonlSink` capture (one `Event` per line) or a chrome
//! trace document written by `chrome_trace_json` (auto-detected by the
//! `traceEvents` key), prints a headline decomposition plus the per-stage
//! utilization table, and optionally writes the full `ProfileReport` JSON:
//!
//! ```text
//! varuna-profile <capture.{jsonl,json} | -> [--out report.json] [--top N]
//! ```
//!
//! With `--follow` the input is a *growing* JSONL capture: the file is
//! tailed incrementally through the same streaming profiler one-shot mode
//! seals once (bounded memory, byte-identical final report), lines are
//! decoded by the same validating decoder, a one-line status is printed
//! as the stream grows, and `--serve ADDR` exposes the live report over
//! HTTP (`/report`, `/downtime`, `/counters`, `/healthz`):
//!
//! ```text
//! varuna-profile events.jsonl --follow --serve 127.0.0.1:7777
//! ```

use std::io::{BufRead, Read, Seek, SeekFrom};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use varuna_obs::{
    event_from_jsonl, events_from_chrome_trace, events_from_jsonl, profile, spawn_http,
    PartialReport, ProfileReport, StreamConfig, StreamingProfiler,
};

const USAGE: &str = "usage: varuna-profile <capture.{jsonl,json} | -> [options]
  --out FILE        write the full ProfileReport JSON to FILE on exit
  --top N           show only the N busiest stages in the utilization table
  --follow          tail a growing JSONL capture incrementally
  --poll-ms MS      polling interval in follow mode (default 200)
  --idle-exit SECS  in follow mode, exit after SECS with no new data (0 = never)
  --serve ADDR      in follow mode, serve the live report over HTTP on ADDR
  --window SECS     streaming reorder window (default: unbounded/exact)";

struct Opts {
    input: String,
    out: Option<String>,
    top: Option<usize>,
    follow: bool,
    poll_ms: u64,
    idle_exit: f64,
    serve: Option<String>,
    window: f64,
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_opts(argv: &[String]) -> Result<Option<Opts>, ExitCode> {
    let mut input: Option<String> = None;
    let mut opts = Opts {
        input: String::new(),
        out: None,
        top: None,
        follow: false,
        poll_ms: 200,
        idle_exit: 0.0,
        serve: None,
        window: f64::INFINITY,
    };
    let mut i = 0;
    let take_value = |i: &mut usize| -> Result<String, ExitCode> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(usage)
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => opts.out = Some(take_value(&mut i)?),
            "--top" => {
                opts.top = Some(take_value(&mut i)?.parse().map_err(|_| usage())?);
            }
            "--follow" => opts.follow = true,
            "--poll-ms" => {
                opts.poll_ms = take_value(&mut i)?.parse().map_err(|_| usage())?;
            }
            "--idle-exit" => {
                opts.idle_exit = take_value(&mut i)?.parse().map_err(|_| usage())?;
            }
            "--serve" => opts.serve = Some(take_value(&mut i)?),
            "--window" => {
                opts.window = take_value(&mut i)?.parse().map_err(|_| usage())?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            arg if arg.starts_with("--") => return Err(usage()),
            arg => {
                if input.is_some() {
                    return Err(usage());
                }
                input = Some(arg.to_string());
            }
        }
        i += 1;
    }
    let Some(input) = input else {
        return Err(usage());
    };
    if opts.serve.is_some() && !opts.follow {
        eprintln!("varuna-profile: --serve requires --follow");
        return Err(ExitCode::from(2));
    }
    opts.input = input;
    Ok(Some(opts))
}

fn print_report(report: &ProfileReport, top: Option<usize>) {
    println!(
        "{} events, makespan {:.3}s, bubble fraction {:.4}",
        report.events, report.makespan, report.bubble_fraction
    );
    if let Some(cp) = &report.critical_path {
        println!(
            "critical path: {:.3}s over {} ops ({:.3}s compute, {:.3}s wait), bottleneck stage {}",
            cp.length, cp.ops, cp.compute_seconds, cp.wait_seconds, cp.bottleneck_stage
        );
    }
    let dt = &report.downtime;
    if dt.downtime_seconds() > 0.0 {
        println!(
            "downtime: {:.1}s degraded, {:.1}s morph restarts ({} morphs / {} reconfigs), \
             {:.1}s checkpoint writes ({}), {:.1}s lost work ({} minibatches)",
            dt.degraded_seconds,
            dt.morph_restart_seconds,
            dt.morphs,
            dt.reconfigurations,
            dt.checkpoint_write_seconds,
            dt.checkpoints,
            dt.lost_work_seconds,
            dt.lost_minibatches
        );
        if dt.migrations > 0 {
            println!(
                "          {:.1}s live stage migration ({} migrations)",
                dt.migration_seconds, dt.migrations
            );
        }
        if dt.checkpoint_overlapped_seconds > 0.0 || dt.delta_checkpoints > 0 {
            println!(
                "          {:.1}s checkpoint writes hidden behind compute \
                 ({} delta checkpoints) — not priced",
                dt.checkpoint_overlapped_seconds, dt.delta_checkpoints
            );
        }
        if dt.recovery_replays > 0 {
            println!(
                "          {:.3}s control-plane recovery ({} WAL replays)",
                dt.recovery_replay_seconds, dt.recovery_replays
            );
        }
    }
    println!();
    print!("{}", report.stage_table_top(top));
}

fn write_out(report: &ProfileReport, out: &Option<String>) -> Result<(), ExitCode> {
    if let Some(out_path) = out {
        if let Err(e) = std::fs::write(out_path, report.to_json()) {
            eprintln!("varuna-profile: cannot write {out_path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        println!("\nreport written to {out_path}");
    }
    Ok(())
}

/// One-shot mode: read the whole capture (file or stdin), attribute it,
/// print, optionally write the JSON report.
fn run_oneshot(opts: &Opts) -> ExitCode {
    let (text, label) = if opts.input == "-" {
        let mut text = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("varuna-profile: cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
        (text, "<stdin>".to_string())
    } else {
        match std::fs::read_to_string(&opts.input) {
            Ok(t) => (t, opts.input.clone()),
            Err(e) => {
                eprintln!("varuna-profile: cannot read {}: {e}", opts.input);
                return ExitCode::FAILURE;
            }
        }
    };
    // A chrome trace is one JSON document with a `traceEvents` array; a
    // JsonlSink capture is one event object per line.
    let parsed = if text.contains("\"traceEvents\"") {
        events_from_chrome_trace(&text)
    } else {
        events_from_jsonl(&text)
    };
    let events = match parsed {
        Ok(events) => events,
        Err(e) => {
            eprintln!("varuna-profile: {label}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = profile(&events);
    print_report(&report, opts.top);
    if let Err(code) = write_out(&report, &opts.out) {
        return code;
    }
    ExitCode::SUCCESS
}

/// Shared live state between the tail loop and the HTTP threads.
struct Follow {
    profiler: StreamingProfiler,
    served: Arc<Mutex<PartialReport>>,
    lines: u64,
}

impl Follow {
    fn ingest(&mut self, chunk: &str) -> Result<usize, String> {
        let mut fresh = 0;
        for line in chunk.lines() {
            self.lines += 1;
            if line.trim().is_empty() {
                continue;
            }
            let event = event_from_jsonl(line).map_err(|e| format!("line {}: {e}", self.lines))?;
            self.profiler.observe(&event);
            fresh += 1;
        }
        if fresh > 0 {
            *self.served.lock().expect("serve lock") = self.profiler.snapshot();
        }
        Ok(fresh)
    }

    fn status(&self) -> String {
        let c = self.profiler.counters();
        format!(
            "{} events, makespan {:.3}s, resident {} entries{}",
            c.events,
            self.profiler.snapshot().makespan(),
            self.profiler.resident(),
            if c.violations() > 0 {
                format!(", {} attribution violations", c.violations())
            } else {
                String::new()
            }
        )
    }
}

/// Follow mode: tail the growing JSONL capture through the streaming
/// profiler. Only complete lines are consumed — a partially written
/// trailing line stays buffered until its newline arrives.
fn run_follow(opts: &Opts) -> ExitCode {
    let cfg = if opts.window.is_finite() {
        StreamConfig::windowed(opts.window, usize::MAX)
    } else {
        StreamConfig::default()
    };
    let mut follow = Follow {
        profiler: StreamingProfiler::new(cfg),
        served: Arc::new(Mutex::new(StreamingProfiler::new(cfg).snapshot())),
        lines: 0,
    };

    if let Some(addr) = &opts.serve {
        match spawn_http(addr, Arc::clone(&follow.served)) {
            Ok(bound) => {
                println!("serving on http://{bound}");
                use std::io::Write;
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                eprintln!("varuna-profile: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.input == "-" {
        // Stdin follows itself: blocking reads until EOF.
        let stdin = std::io::stdin();
        let mut reader = stdin.lock();
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if let Err(e) = follow.ingest(&line) {
                        eprintln!("varuna-profile: <stdin>: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("varuna-profile: cannot read stdin: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        let mut offset: u64 = 0;
        let mut tail = String::new();
        let mut last_growth = Instant::now();
        loop {
            let grew = match tail_chunk(&opts.input, &mut offset) {
                Ok(Some(chunk)) => {
                    tail.push_str(&chunk);
                    // Consume only complete lines; keep the partial tail.
                    let consumable = match tail.rfind('\n') {
                        Some(pos) => tail.drain(..=pos).collect::<String>(),
                        None => String::new(),
                    };
                    if consumable.is_empty() {
                        false
                    } else {
                        match follow.ingest(&consumable) {
                            Ok(fresh) => {
                                if fresh > 0 {
                                    println!("{}", follow.status());
                                }
                                fresh > 0
                            }
                            Err(e) => {
                                eprintln!("varuna-profile: {}: {e}", opts.input);
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                }
                Ok(None) => false,
                Err(e) => {
                    eprintln!("varuna-profile: cannot read {}: {e}", opts.input);
                    return ExitCode::FAILURE;
                }
            };
            if grew {
                last_growth = Instant::now();
            } else {
                if opts.idle_exit > 0.0
                    && last_growth.elapsed() >= Duration::from_secs_f64(opts.idle_exit)
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(opts.poll_ms.max(1)));
            }
        }
    }

    let report = follow.profiler.snapshot().into_report();
    println!();
    print_report(&report, opts.top);
    if let Err(code) = write_out(&report, &opts.out) {
        return code;
    }
    ExitCode::SUCCESS
}

/// Reads whatever the file has grown beyond `offset`. Returns `None`
/// when there is nothing new; resets to the start if the file shrank
/// (rotation/truncation).
fn tail_chunk(path: &str, offset: &mut u64) -> std::io::Result<Option<String>> {
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        // The capture may not exist yet when --follow starts first.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let len = f.metadata()?.len();
    if len < *offset {
        *offset = 0;
    }
    if len == *offset {
        return Ok(None);
    }
    f.seek(SeekFrom::Start(*offset))?;
    let mut buf = Vec::with_capacity((len - *offset) as usize);
    f.take(len - *offset).read_to_end(&mut buf)?;
    *offset += buf.len() as u64;
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&argv) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(code) => return code,
    };
    if opts.follow {
        run_follow(&opts)
    } else {
        run_oneshot(&opts)
    }
}
