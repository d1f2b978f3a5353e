//! The `varuna` command-line tool: plan, inspect, and replay training jobs.
//!
//! ```console
//! $ varuna plan --model gpt2-2.5b --gpus 100 --batch 8192
//! $ varuna sweep --model gpt2-8.3b --gpus 128
//! $ varuna schedule --stages 4 --micro-batches 5
//! $ varuna calibrate --model gpt2-2.5b
//! $ varuna replay --model gpt2-2.5b --hosts 40 --target 160 --hours 24
//! ```
//!
//! Flags use simple `--key value` parsing; every subcommand prints
//! human-readable tables. Clusters: `1gpu` (NC6_v3 spot, default), `4gpu`
//! (NC24_v3 spot), `hyper` (DGX-2). A subcommand rejects any flag it does
//! not accept, a flag given twice and any stray argument, and `replay`
//! takes `--hours` only in `(0, 8760]` (one year of trace).

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;

use varuna::calibrate::Calibration;
use varuna::manager::{Manager, TimelineEvent};
use varuna::planner::Planner;
use varuna::VarunaCluster;
use varuna_cluster::trace::ClusterTrace;
use varuna_exec::pipeline::render_unit_schedule;
use varuna_models::{ModelZoo, TransformerConfig};
use varuna_sched::policy::GPipePolicy;
use varuna_sched::schedule::generate_schedule;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "plan" => parse_flags(rest, PLAN_FLAGS).and_then(|f| cmd_plan(&f)),
        "sweep" => parse_flags(rest, SWEEP_FLAGS).and_then(|f| cmd_sweep(&f)),
        "schedule" => parse_flags(rest, SCHEDULE_FLAGS).and_then(|f| cmd_schedule(&f)),
        "calibrate" => parse_flags(rest, CALIBRATE_FLAGS).and_then(|f| cmd_calibrate(&f)),
        "replay" => parse_flags(rest, REPLAY_FLAGS).and_then(|f| cmd_replay(&f)),
        "models" => parse_flags(rest, &[]).map(|_| cmd_models()),
        _ => {
            usage();
            Err(format!("unknown command {cmd}"))
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "varuna — scalable, low-cost training of massive models (EuroSys'22)\n\n\
         USAGE:\n  \
         varuna plan      --model <name> --gpus <n> [--batch 8192] [--micro <m>] [--cluster 1gpu|4gpu|hyper] [--offload]\n  \
         varuna sweep     --model <name> --gpus <n> [--batch 8192] [--micro <m>]\n  \
         varuna schedule  --stages <p> --micro-batches <n> [--discipline varuna|gpipe]\n  \
         varuna calibrate --model <name> [--cluster 1gpu|4gpu|hyper]\n  \
         varuna replay    --model <name> --hosts <h> --target <gpus> --hours <t> [--seed <s>] [--batch 8192] [--micro 4]\n  \
         varuna models\n\n\
         --hours is at most {MAX_REPLAY_HOURS}."
    );
}

/// A flag a subcommand accepts, and whether it takes a value.
type Flag = (&'static str, bool);

const PLAN_FLAGS: &[Flag] = &[
    ("model", true),
    ("gpus", true),
    ("batch", true),
    ("micro", true),
    ("cluster", true),
    ("offload", false),
];
const SWEEP_FLAGS: &[Flag] = &[
    ("model", true),
    ("gpus", true),
    ("batch", true),
    ("micro", true),
];
const SCHEDULE_FLAGS: &[Flag] = &[
    ("stages", true),
    ("micro-batches", true),
    ("discipline", true),
];
const CALIBRATE_FLAGS: &[Flag] = &[("model", true), ("cluster", true)];
const REPLAY_FLAGS: &[Flag] = &[
    ("model", true),
    ("hosts", true),
    ("target", true),
    ("hours", true),
    ("seed", true),
    ("batch", true),
    ("micro", true),
];

/// The longest trace `replay` generates, hours: one year.
const MAX_REPLAY_HOURS: f64 = 8760.0;

/// Parses `--key value` pairs and bare `--switch`es against the flags a
/// subcommand accepts. An unknown flag, a flag given twice, a value flag
/// without its value and any stray argument are errors.
fn parse_flags(args: &[String], accepted: &[Flag]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let Some(&(_, takes_value)) = accepted.iter().find(|(name, _)| *name == key) else {
            return Err(format!("unknown flag --{key}"));
        };
        let value = if takes_value {
            match rest.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("missing value for --{key}")),
            }
        } else {
            "true".to_string()
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<T, String> {
    flags
        .get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse()
        .map_err(|_| format!("invalid value for --{key}"))
}

fn get_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}")),
        None => Ok(default),
    }
}

/// A count flag (GPUs, stages, batch sizes): zero is an invalid value.
fn get_count(flags: &HashMap<String, String>, key: &str) -> Result<usize, String> {
    get::<NonZeroUsize>(flags, key).map(NonZeroUsize::get)
}

/// A count flag that may be absent.
fn get_count_opt(flags: &HashMap<String, String>, key: &str) -> Result<Option<usize>, String> {
    flags
        .contains_key(key)
        .then(|| get_count(flags, key))
        .transpose()
}

fn model_by_name(name: &str) -> Result<TransformerConfig, String> {
    ModelZoo::all()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| {
            format!(
                "unknown model {name}; available: {}",
                ModelZoo::all()
                    .iter()
                    .map(|m| m.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn cluster_by_kind(kind: &str, gpus: usize) -> Result<VarunaCluster, String> {
    match kind {
        "1gpu" => Ok(VarunaCluster::commodity_1gpu(gpus)),
        "4gpu" => Ok(VarunaCluster::commodity_4gpu(gpus.div_ceil(4))),
        "hyper" => Ok(VarunaCluster::hypercluster(gpus.div_ceil(16))),
        _ => Err(format!("unknown cluster kind {kind} (1gpu|4gpu|hyper)")),
    }
}

fn cmd_models() {
    println!(
        "{:<12} {:>8} {:>7} {:>6} {:>6} {:>7}",
        "model", "params", "layers", "h", "heads", "seq"
    );
    for m in ModelZoo::all() {
        println!(
            "{:<12} {:>7.2}B {:>7} {:>6} {:>6} {:>7}",
            m.name,
            m.params_billions(),
            m.layers,
            m.hidden,
            m.heads,
            m.seq_len
        );
    }
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_by_name(&get::<String>(flags, "model")?)?;
    let gpus = get_count(flags, "gpus")?;
    let batch = get_count_opt(flags, "batch")?.unwrap_or(8192);
    let micro = get_count_opt(flags, "micro")?;
    let kind: String = get_or(flags, "cluster", "1gpu".to_string())?;
    let cluster = cluster_by_kind(&kind, gpus)?;
    let calib = Calibration::profile(&model, &cluster);
    let mut planner = Planner::new(&model, &calib).batch_size(batch);
    if let Some(m) = micro {
        planner = planner.micro_batch(m);
    }
    if flags.contains_key("offload") {
        planner = planner.offload(true);
    }
    let cfg = planner.best_config(gpus).map_err(|e| e.to_string())?;
    println!(
        "best config for {} on {gpus} {kind} GPUs (M_total = {batch}):",
        model.name
    );
    println!(
        "  P x D = {}x{} ({} GPUs used), micro-batch m = {}, N_m = {}",
        cfg.p,
        cfg.d,
        cfg.gpus_used(),
        cfg.m,
        cfg.n_micro
    );
    println!(
        "  estimated mini-batch time {:.1}s -> {:.1} ex/s total, {:.3} ex/s/GPU",
        cfg.est_minibatch_time,
        cfg.throughput(),
        cfg.throughput_per_gpu()
    );
    println!(
        "  stage assignment (cut-point ranges): {:?}",
        cfg.assignment
    );
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_by_name(&get::<String>(flags, "model")?)?;
    let gpus = get_count(flags, "gpus")?;
    let batch = get_count_opt(flags, "batch")?.unwrap_or(8192);
    let micro = get_count_opt(flags, "micro")?;
    let cluster = VarunaCluster::commodity_1gpu(gpus);
    let calib = Calibration::profile(&model, &cluster);
    let mut planner = Planner::new(&model, &calib).batch_size(batch);
    if let Some(m) = micro {
        planner = planner.micro_batch(m);
    }
    let sweep = planner.sweep(gpus);
    if sweep.is_empty() {
        // Nothing is feasible: fail with the reason `varuna plan` gives.
        return Err(planner.best_config(gpus).map_or_else(
            |e| e.to_string(),
            |_| "no feasible configuration".to_string(),
        ));
    }
    println!(
        "{:>4} {:>4} {:>6} {:>6} {:>12} {:>10} {:>12}",
        "P", "D", "GPUs", "N_m", "est (s)", "ex/s", "ex/s/GPU"
    );
    for cfg in sweep {
        println!(
            "{:>4} {:>4} {:>6} {:>6} {:>12.1} {:>10.1} {:>12.3}",
            cfg.p,
            cfg.d,
            cfg.gpus_used(),
            cfg.n_micro,
            cfg.est_minibatch_time,
            cfg.throughput(),
            cfg.throughput_per_gpu()
        );
    }
    Ok(())
}

fn cmd_schedule(flags: &HashMap<String, String>) -> Result<(), String> {
    let p = get_count(flags, "stages")?;
    let n = get_count(flags, "micro-batches")?;
    let (name, s) = match get_or(flags, "discipline", "varuna".to_string())?.as_str() {
        "varuna" => ("Varuna", generate_schedule(p, n, usize::MAX)),
        "gpipe" => (
            "GPipe",
            render_unit_schedule(p, n, usize::MAX, true, &|_, _| Box::new(GPipePolicy))
                .map_err(|e| e.to_string())?,
        ),
        other => return Err(format!("unknown discipline {other}")),
    };
    println!(
        "{name} schedule, {p} stages x {n} micro-batches (makespan {} units):",
        s.makespan
    );
    for (stage, ops) in s.per_stage.iter().enumerate().rev() {
        let line: Vec<String> = ops
            .iter()
            .map(|o| format!("{}{}", o.kind.code(), o.micro + 1))
            .collect();
        println!("  S{}: {}", stage + 1, line.join(" "));
    }
    Ok(())
}

fn cmd_calibrate(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_by_name(&get::<String>(flags, "model")?)?;
    let kind: String = get_or(flags, "cluster", "1gpu".to_string())?;
    let cluster = cluster_by_kind(&kind, 64)?;
    let c = Calibration::profile(&model, &cluster);
    println!("calibration for {} on {kind}:", model.name);
    println!(
        "  m* = {} (lowest m where F(m)/m stops improving)",
        c.pick_m(0.05)
    );
    println!(
        "  inter-node: {:.2} Gbps effective, {:.2} ms latency (incl. mean jitter)",
        c.inter_bw * 8.0 / 1e9,
        c.inter_lat * 1e3
    );
    println!(
        "  k-in-flight allreduce contention: {:.2}x",
        c.ar_contention
    );
    let mid = c.graph.len() / 2;
    println!("  per-cut-point times (middle cut-point):");
    println!(
        "  {:>4} {:>10} {:>10} {:>12}",
        "m", "F_i (ms)", "B_i (ms)", "act_inter(ms)"
    );
    for (mi, &m) in c.ms.iter().enumerate() {
        println!(
            "  {:>4} {:>10.2} {:>10.2} {:>12.2}",
            m,
            c.fwd[mid][mi] * 1e3,
            c.bwd[mid][mi] * 1e3,
            c.act_inter[mi] * 1e3
        );
    }
    Ok(())
}

fn cmd_replay(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_by_name(&get::<String>(flags, "model")?)?;
    let hosts = get_count(flags, "hosts")?;
    let target = get_count(flags, "target")?;
    let hours: f64 = get(flags, "hours")?;
    if !(hours > 0.0 && hours <= MAX_REPLAY_HOURS) {
        return Err(format!(
            "invalid value for --hours: {hours:?} is not in (0, {MAX_REPLAY_HOURS}]"
        ));
    }
    let seed: u64 = get_or(flags, "seed", 7u64)?;
    let batch = get_count_opt(flags, "batch")?.unwrap_or(8192);
    let micro = get_count_opt(flags, "micro")?.unwrap_or(4);
    let cluster = VarunaCluster::commodity_1gpu(target.max(hosts * 4));
    let calib = Calibration::profile(&model, &cluster);
    let trace = ClusterTrace::generate_spot_1gpu(hosts, target, hours, 10.0, seed);
    println!(
        "trace: {} events, {} preemptions over {hours}h",
        trace.events.len(),
        trace.preemptions()
    );
    let mut mgr = Manager::new(&calib, batch, micro);
    let timeline = mgr.replay(&trace).map_err(|e| e.to_string())?;
    println!(
        "{:>7} {:>5} {:>8} {:>9} {:>10}  event",
        "t(h)", "GPUs", "PxD", "ex/s", "ex/s/GPU"
    );
    for p in &timeline {
        let tag = match &p.event {
            TimelineEvent::Morph { p, d } => format!("morph -> {p}x{d}"),
            TimelineEvent::Replacement => "p".into(),
            TimelineEvent::Checkpoint => "ckpt".into(),
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
    Ok(())
}
